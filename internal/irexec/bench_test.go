package irexec_test

import (
	"runtime/debug"
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/regsave"
	"wytiwyg/internal/stackref"
	"wytiwyg/internal/varargs"
	"wytiwyg/internal/vartrack"
)

// benchModule builds a two-level lifted call chain: wrapper calls leaf,
// extracts both results and returns their sum. One wrapper invocation is a
// representative steady-state call/ret cycle (two frames, parameter binding,
// a call tuple, extracts, ALU work and returns).
func benchModule() (*ir.Module, *ir.Func) {
	m := ir.NewModule("bench")

	leaf := m.NewFunc("leaf", 0x2000)
	leaf.NumRet = 2
	lesp := leaf.NewParam(isa.ESP, "esp")
	la := leaf.NewParam(isa.EAX, "a")
	lb := leaf.NewParam(isa.ECX, "b")
	lblk := leaf.NewBlock(0)
	t1 := lblk.Append(leaf.NewValue(ir.OpAdd, la, lb))
	t2 := lblk.Append(leaf.NewValue(ir.OpXor, t1, la))
	t3 := lblk.Append(leaf.NewValue(ir.OpSub, t2, lb))
	_ = lesp
	lblk.Append(leaf.NewValue(ir.OpRet, t3, t1))

	wrap := m.NewFunc("wrapper", 0x1000)
	wrap.NumRet = 1
	wesp := wrap.NewParam(isa.ESP, "esp")
	wa := wrap.NewParam(isa.EAX, "a")
	wb := wrap.NewParam(isa.ECX, "b")
	wblk := wrap.NewBlock(0)
	call := wrap.NewValue(ir.OpCall, wesp, wa, wb)
	call.Callee = leaf
	call.NumRet = 2
	wblk.Append(call)
	e0 := wrap.NewValue(ir.OpExtract, call)
	e0.Idx = 0
	wblk.Append(e0)
	e1 := wrap.NewValue(ir.OpExtract, call)
	e1.Idx = 1
	wblk.Append(e1)
	sum := wblk.Append(wrap.NewValue(ir.OpAdd, e0, e1))
	wblk.Append(wrap.NewValue(ir.OpRet, sum))

	m.Entry = wrap
	return m, wrap
}

// BenchmarkIRCall measures one steady-state lifted call/ret cycle: a wrapper
// frame that calls a leaf, consumes its return tuple and returns.
func BenchmarkIRCall(b *testing.B) {
	mod, wrap := benchModule()
	ip, err := irexec.New(mod, machine.Input{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	ip.MaxSteps = ^uint64(0)
	args := []uint32{isa.StackTop, 5, 7}
	dest := make([]uint32, wrap.NumRet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := irexec.CallFunc(ip, wrap, args, dest); err != nil {
			b.Fatal(err)
		}
	}
}

// regsaveVarargs is the regsave refinement's replay tracer: the regsave
// runtime observes every hook, and the varargs runtime the raw variadic
// calls.
type regsaveVarargs struct {
	*regsave.Tracer
	va *varargs.Tracer
}

func (t regsaveVarargs) Exec(fr *irexec.Frame, v *ir.Value, args []uint32, res uint32) {
	t.Tracer.Exec(fr, v, args, res)
	if v.Op == ir.OpCallExtRaw {
		t.va.Exec(fr, v, args, res)
	}
}

// TestCallRetZeroAlloc pins the frame-recycling guarantee: once warm, a
// lifted call/ret cycle (two frames deep here) performs no heap
// allocation, neither bare nor under either refinement replay's tracers,
// whose per-value metadata lives in recycled slot tables.
func TestCallRetZeroAlloc(t *testing.T) {
	tracers := []struct {
		name string
		tr   func(mod *ir.Module) irexec.Tracer
	}{
		{"bare", func(*ir.Module) irexec.Tracer { return nil }},
		{"regsave+varargs", func(*ir.Module) irexec.Tracer {
			return regsaveVarargs{regsave.NewTracer(), varargs.NewTracer()}
		}},
		{"vartrack", func(mod *ir.Module) irexec.Tracer {
			offs := make(map[*ir.Func]stackref.Offsets)
			for _, f := range mod.Funcs {
				offs[f] = stackref.Analyze(f)
			}
			return vartrack.NewTracer(offs)
		}},
	}
	for _, tc := range tracers {
		t.Run(tc.name, func(t *testing.T) {
			mod, wrap := benchModule()
			ip, err := irexec.New(mod, machine.Input{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ip.Tr = tc.tr(mod)
			ip.MaxSteps = ^uint64(0)
			args := []uint32{isa.StackTop, 5, 7}
			dest := make([]uint32, wrap.NumRet)
			// Keep a collection from running mid-measurement, so the
			// count reflects the interpreter and tracers alone.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			for i := 0; i < 16; i++ { // warm the frames and tables
				if err := irexec.CallFunc(ip, wrap, args, dest); err != nil {
					t.Fatal(err)
				}
			}
			// AllocsPerRun truncates total/runs: a high run count makes the
			// test immune to bounded background allocation (the runtime
			// spawning threads under a loaded scheduler) while still
			// flagging any real per-call allocation, which would add >= 1
			// per run.
			allocs := testing.AllocsPerRun(10000, func() {
				if err := irexec.CallFunc(ip, wrap, args, dest); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state call/ret allocates: %v allocs/op, want 0", allocs)
			}
			// leaf(5,7): t1=12, t2=12^5=9, t3=9-7=2; wrapper returns t3+t1 = 14.
			if dest[0] != 14 {
				t.Fatalf("result = %d, want 14", dest[0])
			}
		})
	}
}
