package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
)

// Differential testing: generate random (but well-defined) mini-C programs
// and require the complete pipeline — compile at every profile, trace,
// refine, optimize, recompile — to preserve behaviour exactly. This is the
// reproduction's analogue of the paper's functionality validation at scale.

// progGen emits a random program with bounded loops, arrays, scalars,
// helper calls and pointer use. All arithmetic avoids division by zero and
// all indexes stay in bounds, so behaviour is deterministic and defined.
type progGen struct {
	r   *rand.Rand
	buf strings.Builder
	// scalar variable names in scope
	scalars []string
	arrays  []string // fixed length 8
	depth   int
}

func (g *progGen) pick(list []string) string { return list[g.r.Intn(len(list))] }

// expr emits a well-defined integer expression.
func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(100))
		case 1:
			return g.pick(g.scalars)
		case 2:
			return fmt.Sprintf("%s[%d]", g.pick(g.arrays), g.r.Intn(8))
		default:
			return fmt.Sprintf("%s[%s]", g.pick(g.arrays), g.safeIndex())
		}
	}
	op := []string{"+", "-", "*", "&", "|", "^"}[g.r.Intn(6)]
	return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
}

// safeIndex emits an expression guaranteed in [0,8).
func (g *progGen) safeIndex() string {
	v := g.pick(g.scalars)
	return fmt.Sprintf("((%s %% 8 + 8) %% 8)", v)
}

func (g *progGen) stmt(depth int) {
	ind := strings.Repeat("\t", g.depth+1)
	switch g.r.Intn(6) {
	case 0: // scalar assignment
		fmt.Fprintf(&g.buf, "%s%s = %s;\n", ind, g.pick(g.scalars), g.expr(2))
	case 1: // array store
		fmt.Fprintf(&g.buf, "%s%s[%s] = %s;\n", ind, g.pick(g.arrays), g.safeIndex(), g.expr(2))
	case 2: // bounded for loop with a reserved counter (never reassigned)
		if depth <= 0 {
			fmt.Fprintf(&g.buf, "%s%s += 1;\n", ind, g.pick(g.scalars))
			return
		}
		v := fmt.Sprintf("l%d", g.depth)
		fmt.Fprintf(&g.buf, "%sfor (%s = 0; %s < %d; %s++) {\n", ind, v, v, 2+g.r.Intn(6), v)
		g.depth++
		n := 1 + g.r.Intn(2)
		for i := 0; i < n; i++ {
			g.stmt(depth - 1)
		}
		g.depth--
		fmt.Fprintf(&g.buf, "%s}\n", ind)
	case 3: // if/else
		if depth <= 0 {
			fmt.Fprintf(&g.buf, "%s%s ^= 3;\n", ind, g.pick(g.scalars))
			return
		}
		fmt.Fprintf(&g.buf, "%sif (%s > %s) {\n", ind, g.expr(1), g.expr(1))
		g.depth++
		g.stmt(depth - 1)
		g.depth--
		fmt.Fprintf(&g.buf, "%s} else {\n", ind)
		g.depth++
		g.stmt(depth - 1)
		g.depth--
		fmt.Fprintf(&g.buf, "%s}\n", ind)
	case 4: // helper call
		fmt.Fprintf(&g.buf, "%s%s = mix(%s, %s);\n", ind,
			g.pick(g.scalars), g.expr(1), g.expr(1))
	default: // pointer write through a derived pointer
		fmt.Fprintf(&g.buf, "%s*(%s + %s) = %s;\n", ind,
			g.pick(g.arrays), g.safeIndex(), g.expr(1))
	}
}

func generate(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	g := &progGen{r: r, scalars: []string{"x", "y", "z"}, arrays: []string{"va", "vb"}}
	g.buf.WriteString("extern int printf(char *fmt, ...);\n")
	g.buf.WriteString("int mix(int a, int b) { return a * 3 + b - (a & b); }\n")
	g.buf.WriteString("int main() {\n")
	g.buf.WriteString("\tint x = 1, y = 2, z = 3;\n")
	g.buf.WriteString("\tint l0 = 0, l1 = 0, l2 = 0, l3 = 0;\n")
	g.buf.WriteString("\tint va[8];\n\tint vb[8];\n\tint i;\n")
	g.buf.WriteString("\tfor (i = 0; i < 8; i++) { va[i] = i; vb[i] = 7 - i; }\n")
	n := 4 + r.Intn(6)
	for i := 0; i < n; i++ {
		g.stmt(2)
	}
	g.buf.WriteString("\tint sum = x + y + z + l0 + l1 + l2 + l3;\n")
	g.buf.WriteString("\tfor (i = 0; i < 8; i++) sum += va[i] * 5 + vb[i];\n")
	g.buf.WriteString("\tprintf(\"%d\\n\", sum);\n")
	g.buf.WriteString("\treturn sum % 251;\n}\n")
	return g.buf.String()
}

func TestDifferentialRandomPrograms(t *testing.T) {
	programs := int64(30)
	if testing.Short() {
		programs = 6
	}
	for seed := int64(1); seed <= programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := generate(seed)
			prof := gen.Profiles[int(seed)%len(gen.Profiles)]
			img, err := gen.Build(src, prof, "fuzz")
			if err != nil {
				t.Fatalf("compile (%s):\n%s\nerr: %v", prof.Name, src, err)
			}
			var natOut bytes.Buffer
			nat, err := machine.Execute(img, machine.Input{}, &natOut)
			if err != nil {
				t.Fatalf("native: %v\n%s", err, src)
			}
			p, err := core.LiftBinary(img, nil)
			if err != nil {
				t.Fatalf("lift: %v\n%s", err, src)
			}
			if err := p.Refine(); err != nil {
				t.Fatalf("refine: %v\n%s", err, src)
			}
			if n := p.Report.Errors(); n != 0 {
				t.Errorf("lint found %d proven violation(s) (%s):\n%s\n%s", n, prof.Name, p.Report, src)
			}
			out, _, err := p.Recompile("fuzz-rec")
			if err != nil {
				t.Fatalf("codegen: %v\n%s", err, src)
			}
			var recOut bytes.Buffer
			rec, err := machine.Execute(out, machine.Input{}, &recOut)
			if err != nil {
				t.Fatalf("recompiled run: %v\n%s", err, src)
			}
			if rec.ExitCode != nat.ExitCode || recOut.String() != natOut.String() {
				t.Errorf("behaviour diverged (%s): %d/%q vs %d/%q\n%s",
					prof.Name, rec.ExitCode, recOut.String(),
					nat.ExitCode, natOut.String(), src)
			}
		})
	}
}
