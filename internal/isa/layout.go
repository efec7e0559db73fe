package isa

// Address-space layout shared by the machine, the assembler/linker, the
// lifter and the analyses. The map is flat 32-bit:
//
//	CodeBase  .. CodeBase+len(code)   executable image (also readable: jump
//	                                  tables live in data, but code addresses
//	                                  may be loaded as data by PIC idioms)
//	DataBase  ..                      globals and constant data
//	InputBase ..                      harness-provided program inputs
//	HeapBase  ..                      sbrk/malloc region, grows upward
//	StackTop                          initial ESP, stack grows downward
//	ExtBase   ..                      virtual addresses of external (library)
//	                                  functions; CALLs here dispatch natively
const (
	CodeBase  uint32 = 0x0000_1000
	DataBase  uint32 = 0x1000_0000
	InputBase uint32 = 0x1800_0000
	HeapBase  uint32 = 0x2000_0000
	StackTop  uint32 = 0xF000_0000
	ExtBase   uint32 = 0xFF00_0000

	// DataSize bounds an image's globals and constant data: the data
	// section ends where the input strings start.
	DataSize = InputBase - DataBase

	// InstrSize is the fixed encoded size of every instruction.
	InstrSize = 16
)

// IsExtAddr reports whether addr is in the external-function range.
func IsExtAddr(addr uint32) bool { return addr >= ExtBase }

// IsCodeAddr reports whether addr could be a code address for an image with
// n instructions.
func IsCodeAddr(addr uint32, n int) bool {
	return addr >= CodeBase && addr < CodeBase+uint32(n)*InstrSize && (addr-CodeBase)%InstrSize == 0
}
