package machine

import (
	"fmt"
	"io"
	"strings"

	"wytiwyg/internal/isa"
)

// libsim is the simulated C library. External functions are called through
// PLT addresses (>= isa.ExtBase); the machine dispatches them natively, with
// cdecl argument passing: arguments on the stack above the return address,
// result in EAX, caller cleans the stack. Each handler charges cycles
// proportional to the work it does so that library time is comparable
// between input and recompiled binaries (it is identical code in both, so it
// largely cancels out of the paper's runtime ratios).
//
// The set mirrors the libc functions the paper's external-function database
// needs to describe (§5.3): memory movers, string functions, a printf
// family with runtime-inspectable format strings (§5.2), an allocator, and
// the input accessors standing in for the benchmark ref inputs.

// LibState is the simulated C library's runtime state. It is shared between
// the machine (running original and recompiled binaries) and the IR
// interpreter (running instrumented lifted programs), so that external
// behaviour is bit-identical in both worlds.
type LibState struct {
	Mem *Memory   // the program's address space
	Out io.Writer // printf/puts output sink
	// Cycles accumulates work done inside library functions.
	Cycles uint64
	// Halted is set by exit(); ExitCode carries its status argument.
	Halted   bool
	ExitCode int32 // see Halted

	input     Input
	inStrPtr  []uint32
	heapBrk   uint32
	randState uint32
	strtokPos uint32
}

// NewLibState initializes library state over a memory, laying the input
// strings into the input region.
func NewLibState(mem *Memory, input Input, out io.Writer) (*LibState, error) {
	if out == nil {
		out = io.Discard
	}
	ls := &LibState{
		Mem:       mem,
		Out:       out,
		input:     input,
		heapBrk:   isa.HeapBase,
		randState: 0x2545F491,
	}
	addr := isa.InputBase
	for _, s := range input.Strs {
		ls.inStrPtr = append(ls.inStrPtr, addr)
		if err := mem.WriteBytes(addr, append([]byte(s), 0)); err != nil {
			return nil, err
		}
		addr += uint32(len(s)) + 1
		addr = (addr + 3) &^ 3
	}
	return ls, nil
}

// Call invokes a library function by name, reading arguments through arg
// (argument i of the call).
func (ls *LibState) Call(name string, arg func(i int) (uint32, error)) (uint32, error) {
	h, ok := extHandlers[name]
	if !ok {
		return 0, fmt.Errorf("machine: external %q not implemented", name)
	}
	return h(ls, arg)
}

// extHandler is the native implementation of one library function. arg
// reads the i-th stack argument.
type extHandler func(ls *LibState, arg func(i int) (uint32, error)) (uint32, error)

var extHandlers = map[string]extHandler{
	"exit": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		code, err := arg(0)
		if err != nil {
			return 0, err
		}
		ls.Halted = true
		ls.ExitCode = int32(code)
		return code, nil
	},
	"putint": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		v, err := arg(0)
		if err != nil {
			return 0, err
		}
		s := fmt.Sprintf("%d", int32(v))
		ls.Cycles += uint64(len(s))
		fmt.Fprint(ls.Out, s)
		return 0, nil
	},
	"putchar": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		v, err := arg(0)
		if err != nil {
			return 0, err
		}
		ls.Cycles++
		fmt.Fprintf(ls.Out, "%c", byte(v))
		return v, nil
	},
	"puts": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		p, err := arg(0)
		if err != nil {
			return 0, err
		}
		s, err := ls.Mem.CString(p)
		if err != nil {
			return 0, err
		}
		ls.Cycles += uint64(len(s)) + 1
		fmt.Fprintln(ls.Out, s)
		return uint32(len(s) + 1), nil
	},
	"printf": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		s, err := ls.formatPrintf(arg, 0)
		if err != nil {
			return 0, err
		}
		ls.Cycles += uint64(len(s))
		fmt.Fprint(ls.Out, s)
		return uint32(len(s)), nil
	},
	"sprintf": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		dst, err := arg(0)
		if err != nil {
			return 0, err
		}
		s, err := ls.formatPrintf(arg, 1)
		if err != nil {
			return 0, err
		}
		ls.Cycles += uint64(len(s))
		if err := ls.Mem.WriteBytes(dst, append([]byte(s), 0)); err != nil {
			return 0, err
		}
		return uint32(len(s)), nil
	},
	"malloc": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		n, err := arg(0)
		if err != nil {
			return 0, err
		}
		// Deterministic bump allocator, 8-byte aligned.
		p := ls.heapBrk
		ls.heapBrk += (n + 7) &^ 7
		ls.Cycles += 20
		return p, nil
	},
	"free": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		if _, err := arg(0); err != nil {
			return 0, err
		}
		ls.Cycles += 10
		return 0, nil
	},
	"memset": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		p, err := arg(0)
		if err != nil {
			return 0, err
		}
		v, err := arg(1)
		if err != nil {
			return 0, err
		}
		n, err := arg(2)
		if err != nil {
			return 0, err
		}
		for i := uint32(0); i < n; i++ {
			if err := ls.Mem.Store(p+i, v, 1); err != nil {
				return 0, err
			}
		}
		ls.Cycles += uint64(n)/4 + 4
		return p, nil
	},
	"memcpy": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		d, err := arg(0)
		if err != nil {
			return 0, err
		}
		s, err := arg(1)
		if err != nil {
			return 0, err
		}
		n, err := arg(2)
		if err != nil {
			return 0, err
		}
		b, err := ls.Mem.ReadBytes(s, int(n))
		if err != nil {
			return 0, err
		}
		if err := ls.Mem.WriteBytes(d, b); err != nil {
			return 0, err
		}
		ls.Cycles += uint64(n)/4 + 4
		return d, nil
	},
	"strlen": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		p, err := arg(0)
		if err != nil {
			return 0, err
		}
		s, err := ls.Mem.CString(p)
		if err != nil {
			return 0, err
		}
		ls.Cycles += uint64(len(s)) / 4
		return uint32(len(s)), nil
	},
	"strcmp": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		pa, err := arg(0)
		if err != nil {
			return 0, err
		}
		pb, err := arg(1)
		if err != nil {
			return 0, err
		}
		a, err := ls.Mem.CString(pa)
		if err != nil {
			return 0, err
		}
		b, err := ls.Mem.CString(pb)
		if err != nil {
			return 0, err
		}
		ls.Cycles += uint64(min(len(a), len(b)))/4 + 2
		return uint32(int32(strings.Compare(a, b))), nil
	},
	"strcpy": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		d, err := arg(0)
		if err != nil {
			return 0, err
		}
		sp, err := arg(1)
		if err != nil {
			return 0, err
		}
		s, err := ls.Mem.CString(sp)
		if err != nil {
			return 0, err
		}
		if err := ls.Mem.WriteBytes(d, append([]byte(s), 0)); err != nil {
			return 0, err
		}
		ls.Cycles += uint64(len(s))/4 + 2
		return d, nil
	},
	"strtok": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		// Classic stateful strtok: a non-null first argument starts a new
		// scan; NUL bytes are written over delimiters. The returned pointer
		// derives from the argument object — the extdb Derive constraint.
		p, err := arg(0)
		if err != nil {
			return 0, err
		}
		dp, err := arg(1)
		if err != nil {
			return 0, err
		}
		delims, err := ls.Mem.CString(dp)
		if err != nil {
			return 0, err
		}
		if p != 0 {
			ls.strtokPos = p
		}
		if ls.strtokPos == 0 {
			return 0, nil
		}
		isDelim := func(c byte) bool { return strings.IndexByte(delims, c) >= 0 }
		pos := ls.strtokPos
		for {
			c, err := ls.Mem.Load(pos, 1)
			if err != nil {
				return 0, err
			}
			if c == 0 {
				ls.strtokPos = 0
				return 0, nil
			}
			if !isDelim(byte(c)) {
				break
			}
			pos++
		}
		start := pos
		for {
			c, err := ls.Mem.Load(pos, 1)
			if err != nil {
				return 0, err
			}
			if c == 0 {
				ls.strtokPos = 0
				break
			}
			if isDelim(byte(c)) {
				if err := ls.Mem.Store(pos, 0, 1); err != nil {
					return 0, err
				}
				ls.strtokPos = pos + 1
				break
			}
			pos++
		}
		ls.Cycles += uint64(pos-start)/2 + 4
		return start, nil
	},
	"atoi": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		p, err := arg(0)
		if err != nil {
			return 0, err
		}
		s, err := ls.Mem.CString(p)
		if err != nil {
			return 0, err
		}
		var v int32
		var neg bool
		i := 0
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i < len(s) && (s[i] == '-' || s[i] == '+') {
			neg = s[i] == '-'
			i++
		}
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			v = v*10 + int32(s[i]-'0')
		}
		if neg {
			v = -v
		}
		ls.Cycles += uint64(len(s))
		return uint32(v), nil
	},
	"abs": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		v, err := arg(0)
		if err != nil {
			return 0, err
		}
		if int32(v) < 0 {
			v = uint32(-int32(v))
		}
		return v, nil
	},
	"rand": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		// Deterministic LCG (same constants as glibc's TYPE_0).
		ls.randState = ls.randState*1103515245 + 12345
		return (ls.randState >> 16) & 0x7FFF, nil
	},
	"srand": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		v, err := arg(0)
		if err != nil {
			return 0, err
		}
		ls.randState = v
		return 0, nil
	},
	"input_int": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		i, err := arg(0)
		if err != nil {
			return 0, err
		}
		if int(i) >= len(ls.input.Ints) {
			return 0, nil
		}
		return uint32(ls.input.Ints[i]), nil
	},
	"input_str": func(ls *LibState, arg func(int) (uint32, error)) (uint32, error) {
		i, err := arg(0)
		if err != nil {
			return 0, err
		}
		if int(i) >= len(ls.inStrPtr) {
			return 0, nil
		}
		return ls.inStrPtr[i], nil
	},
}

// formatPrintf renders a printf-style call whose format string is stack
// argument fmtArg and whose varargs follow it. Supported verbs: %d %u %x %c
// %s %%.
func (ls *LibState) formatPrintf(arg func(int) (uint32, error), fmtArg int) (string, error) {
	fp, err := arg(fmtArg)
	if err != nil {
		return "", err
	}
	format, err := ls.Mem.CString(fp)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	next := fmtArg + 1
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			b.WriteByte(c)
			continue
		}
		i++
		verb := format[i]
		if verb == '%' {
			b.WriteByte('%')
			continue
		}
		v, err := arg(next)
		if err != nil {
			return "", err
		}
		next++
		switch verb {
		case 'd':
			fmt.Fprintf(&b, "%d", int32(v))
		case 'u':
			fmt.Fprintf(&b, "%d", v)
		case 'x':
			fmt.Fprintf(&b, "%x", v)
		case 'c':
			b.WriteByte(byte(v))
		case 's':
			s, err := ls.Mem.CString(v)
			if err != nil {
				return "", err
			}
			b.WriteString(s)
		default:
			return "", fmt.Errorf("machine: printf: unsupported verb %%%c", verb)
		}
	}
	return b.String(), nil
}

// CountPrintfArgs returns the number of variadic arguments a printf format
// string consumes. The varargs refinement (§5.2) uses this to recover exact
// call-site signatures at runtime.
func CountPrintfArgs(format string) int {
	n := 0
	for i := 0; i < len(format); i++ {
		if format[i] == '%' && i+1 < len(format) {
			i++
			if format[i] != '%' {
				n++
			}
		}
	}
	return n
}

// extCall dispatches an external call. For external targets CALL does not
// push a return address (the PLT "function" runs natively and control
// resumes at the next instruction), so stack argument i sits at ESP + 4*i.
// For calls into lifted code the return address IS pushed and argument i
// sits at sp0 + 4 + 4*i; both conventions are fixed and known to the lifter.
func (m *Machine) extCall(target uint32) error {
	name, ok := m.img.ExtName(target)
	if !ok {
		return fmt.Errorf("machine: call to unknown external 0x%x", target)
	}
	sp := m.Regs[isa.ESP]
	arg := func(i int) (uint32, error) {
		return m.Mem.Load(sp+uint32(4*i), 4)
	}
	ret, err := m.lib.Call(name, arg)
	if err != nil {
		return err
	}
	if m.lib.Halted {
		m.halted = true
		m.exitCode = m.lib.ExitCode
	}
	m.Regs[isa.EAX] = ret
	return nil
}
