package bench

import (
	"io"
	"testing"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/vsa"
)

// Differential validation of the value-set analysis: every MustNotAlias
// verdict and every exact frame-slot claim (a value set whose only part is
// one alloca at one offset) the analysis makes about a refined module is
// checked against the concrete addresses observed while executing that
// module. A single counterexample — two "disjoint" accesses
// touching a common byte within one activation, or a "resolved" pointer
// not equal to its alloca+offset — is an unsoundness bug, the one failure
// mode a static alias oracle must never have.

const (
	watchAccess = 1 + iota // record the evaluated address operand
	watchAlloca            // record the slot's runtime base address
)

// vsaRecorder traces concrete addresses for a watched set of values,
// keyed by activation epoch so distinct calls never mix.
type vsaRecorder struct {
	watch map[*ir.Value]int
	rec   map[*ir.Value]map[uint64][]uint64
}

func (r *vsaRecorder) add(e uint64, v *ir.Value, addr uint64) {
	m := r.rec[v]
	if m == nil {
		m = make(map[uint64][]uint64)
		r.rec[v] = m
	}
	for _, a := range m[e] {
		if a == addr {
			return
		}
	}
	m[e] = append(m[e], addr)
}

func (r *vsaRecorder) FnEnter(fr *irexec.Frame)                           {}
func (r *vsaRecorder) FnExit(fr *irexec.Frame, ret *ir.Value, _ []uint32) {}
func (r *vsaRecorder) Act(fr *irexec.Frame, s *irexec.Site, args []uint32, result uint32) {
	switch r.watch[s.V] {
	case watchAccess:
		r.add(fr.Epoch, s.V, uint64(args[0]))
	case watchAlloca:
		r.add(fr.Epoch, s.V, uint64(result))
	}
}

func TestVSADifferentialNoUnsoundVerdicts(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	totalVerdicts, totalClaims := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		src := generate(seed)
		prof := gen.Profiles[int(seed)%len(gen.Profiles)]
		img, err := gen.Build(src, prof, "vsafuzz")
		if err != nil {
			t.Fatalf("seed %d: compile (%s): %v", seed, prof.Name, err)
		}
		p, err := core.LiftBinary(img, nil)
		if err != nil {
			t.Fatalf("seed %d: lift: %v", seed, err)
		}
		if err := p.Refine(); err != nil {
			t.Fatalf("seed %d: refine: %v", seed, err)
		}

		// Collect every oracle verdict about the refined module.
		type access struct {
			v    *ir.Value // the load/store
			addr *ir.Value
			sz   int64
		}
		type pair struct{ a, b access }
		type claim struct {
			acc    access
			alloca *ir.Value
			off    int64
		}
		var pairs []pair
		var claims []claim
		recorder := &vsaRecorder{
			watch: make(map[*ir.Value]int),
			rec:   make(map[*ir.Value]map[uint64][]uint64),
		}
		for _, f := range p.Mod.Funcs {
			orc := vsa.NewOracle(f)
			var accs []access
			for _, b := range f.Blocks {
				for _, v := range b.Insts {
					switch v.Op {
					case ir.OpLoad, ir.OpStore:
						sz := int64(v.Size)
						if sz == 0 {
							sz = 4
						}
						accs = append(accs, access{v, v.Args[0], sz})
						recorder.watch[v] = watchAccess
					case ir.OpAlloca:
						recorder.watch[v] = watchAlloca
					}
				}
			}
			for i := 0; i < len(accs); i++ {
				for j := i + 1; j < len(accs); j++ {
					if orc.MustNotAlias(accs[i].addr, accs[i].sz, accs[j].addr, accs[j].sz) {
						pairs = append(pairs, pair{accs[i], accs[j]})
					}
				}
				if a, offs, ok := orc.Result().ValueSetOf(accs[i].addr).FramePart(); ok {
					if off, exact := offs.Exact(); exact {
						claims = append(claims, claim{accs[i], a, off})
					}
				}
			}
		}
		totalVerdicts += len(pairs)
		totalClaims += len(claims)

		// Execute the refined module and record the concrete addresses.
		ip, err := irexec.New(p.Mod, machine.Input{}, io.Discard)
		if err != nil {
			t.Fatalf("seed %d: interp: %v", seed, err)
		}
		ip.Tr = recorder
		if _, err := ip.Run(); err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}

		// No two byte ranges of a proven-disjoint pair may intersect within
		// one activation.
		for _, pr := range pairs {
			ra, rb := recorder.rec[pr.a.v], recorder.rec[pr.b.v]
			for e, addrsA := range ra {
				for _, x := range addrsA {
					for _, y := range rb[e] {
						if x < y+uint64(pr.b.sz) && y < x+uint64(pr.a.sz) {
							t.Fatalf("seed %d: UNSOUND MustNotAlias in %s: %v@%#x/%d overlaps %v@%#x/%d (epoch %d)\n%s",
								seed, pr.a.v.Block.Func.Name,
								pr.a.v, x, pr.a.sz, pr.b.v, y, pr.b.sz, e, src)
						}
					}
				}
			}
		}
		// Every resolved pointer must equal its alloca's base plus the
		// claimed offset, in every activation.
		for _, c := range claims {
			bases := recorder.rec[c.alloca]
			for e, addrs := range recorder.rec[c.acc.v] {
				base, ok := bases[e]
				if !ok || len(base) != 1 {
					continue
				}
				want := uint64(uint32(base[0]) + uint32(int32(c.off)))
				for _, got := range addrs {
					if got != want {
						t.Fatalf("seed %d: UNSOUND frame-slot claim in %s: %v at %#x, claimed %s+%d = %#x (epoch %d)\n%s",
							seed, c.acc.v.Block.Func.Name,
							c.acc.v, got, c.alloca.Name, c.off, want, e, src)
					}
				}
			}
		}
	}
	if totalVerdicts == 0 || totalClaims == 0 {
		t.Fatalf("differential corpus exercised %d disjointness verdicts and %d slot claims; want both > 0",
			totalVerdicts, totalClaims)
	}
	t.Logf("validated %d disjointness verdicts and %d slot claims", totalVerdicts, totalClaims)
}

// The oracle must also hold on the real benchmark corpus, where strided
// array loops dominate: every verdict over every function is re-checked
// dynamically on a scaled-down run.
func TestVSADifferentialBenchCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the random-program differential in short mode")
	}
	for _, prog := range progs.All[:3] {
		p := Scaled(prog, 3)
		img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
		if err != nil {
			t.Fatalf("%s: build: %v", p.Name, err)
		}
		pl, err := core.LiftBinary(img, p.Inputs())
		if err != nil {
			t.Fatalf("%s: lift: %v", p.Name, err)
		}
		if err := pl.Refine(); err != nil {
			t.Fatalf("%s: refine: %v", p.Name, err)
		}
		verdicts := checkFunctionVerdicts(t, pl, p.Name)
		if verdicts == 0 {
			t.Errorf("%s: no disjointness verdicts exercised", p.Name)
		}
	}
}

// checkFunctionVerdicts validates every MustNotAlias verdict of every
// function in pl's module against a traced execution of all inputs,
// returning the number of verdicts checked.
func checkFunctionVerdicts(t *testing.T, pl *core.Pipeline, name string) int {
	t.Helper()
	type access struct {
		v    *ir.Value
		addr *ir.Value
		sz   int64
	}
	type pair struct{ a, b access }
	var pairs []pair
	recorder := &vsaRecorder{
		watch: make(map[*ir.Value]int),
		rec:   make(map[*ir.Value]map[uint64][]uint64),
	}
	for _, f := range pl.Mod.Funcs {
		orc := vsa.NewOracle(f)
		var accs []access
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				if v.Op != ir.OpLoad && v.Op != ir.OpStore {
					continue
				}
				sz := int64(v.Size)
				if sz == 0 {
					sz = 4
				}
				accs = append(accs, access{v, v.Args[0], sz})
				recorder.watch[v] = watchAccess
			}
		}
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				if orc.MustNotAlias(accs[i].addr, accs[i].sz, accs[j].addr, accs[j].sz) {
					pairs = append(pairs, pair{accs[i], accs[j]})
				}
			}
		}
	}
	for i := range pl.Inputs {
		ip, err := irexec.New(pl.Mod, pl.Inputs[i], io.Discard)
		if err != nil {
			t.Fatalf("%s: interp: %v", name, err)
		}
		ip.Tr = recorder
		if _, err := ip.Run(); err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
	}
	for _, pr := range pairs {
		ra, rb := recorder.rec[pr.a.v], recorder.rec[pr.b.v]
		for e, addrsA := range ra {
			for _, x := range addrsA {
				for _, y := range rb[e] {
					if x < y+uint64(pr.b.sz) && y < x+uint64(pr.a.sz) {
						t.Fatalf("%s: UNSOUND MustNotAlias in %s: %v@%#x/%d overlaps %v@%#x/%d (epoch %d)",
							name, pr.a.v.Block.Func.Name,
							pr.a.v, x, pr.a.sz, pr.b.v, y, pr.b.sz, e)
					}
				}
			}
		}
	}
	return len(pairs)
}
