package irexec

import (
	"testing"
	"unsafe"
)

// The hot loop walks insts sequentially; a compiled instruction that grew
// past 48 bytes ran measurably slower, so the hook bit shares the flags
// byte with the load's signedness instead of adding a field, and the
// source instruction lives in the parallel site array instead of the
// instruction, which keeps it at 40.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(inst{}); n != 40 {
		t.Errorf("inst is %d bytes, want 40", n)
	}
}
