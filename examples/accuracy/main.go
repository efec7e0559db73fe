// Accuracy: compare the dynamically recovered stack layout against the
// compiler's ground truth for one program, in the style of the paper's §6.3
// and Figure 7. Each ground-truth object is classified as matched,
// oversized, undersized or missed; the paper's deliberate
// partial-coverage property ("if f3 returns 0 in every invocation across
// all traces, the array will be split") is demonstrated directly.
package main

import (
	"fmt"
	"log"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/symbolize"
)

// The paper's Figure 2 program. f3's return value decides which element of
// b the struct assignment touches — and therefore how much of b the dynamic
// analysis can connect into one object.
const srcTemplate = `
struct p { int x; int y; };
int f3(int n) { return n / %d; }
struct p *f2(struct p *a, struct p *b) { return a; }
int f1() {
	struct p *ptr; struct p a; struct p b[3];
	a.x = 3; a.y = 4;
	ptr = f2(&a, b);
	b[f3(sizeof(b))] = a;
	ptr->y = b[1].x;
	return ptr->y * 100 + b[2].x * 10 + b[2].y;
}
int main() { return f1(); }`

// result is one configuration's recovered layout and its ground truth.
type result struct {
	truth, rec *layout.Frame
}

func analyze(divisor int) result {
	src := fmt.Sprintf(srcTemplate, divisor)
	img, err := gen.Build(src, gen.GCC12O0, "fig2")
	if err != nil {
		log.Fatal(err)
	}
	p, err := core.LiftBinary(img, []machine.Input{{}})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		log.Fatal(err)
	}
	if _, _, err := p.Recompile("fig2-rec"); err != nil {
		log.Fatal(err)
	}
	rec := symbolize.RecoveredLayout(p.Mod).Frame("f1")
	return result{truth: img.Truth.Frame("f1"), rec: rec}
}

func show(title string, r result) {
	fmt.Println(title)
	fmt.Printf("  ground truth:  %s\n", r.truth)
	acc := layout.CompareFrame(r.truth, r.rec)
	fmt.Printf("  recovered:     %s\n", r.rec)
	fmt.Printf("    matched=%d oversized=%d undersized=%d missed=%d  precision=%.0f%% recall=%.0f%%\n",
		acc.Counts[layout.Matched], acc.Counts[layout.Oversized],
		acc.Counts[layout.Undersized], acc.Counts[layout.Missed],
		acc.Precision()*100, acc.Recall()*100)
	fmt.Println()
}

// typedCorpus is the second accuracy table: the type-recovery stage's
// claims over the whole benchmark corpus, scored per program against
// minicc's declared slot types (the same data `wytiwyg -emit-types`
// writes as the ground-truth sidecar). Claims are only counted on slots
// whose byte range the layout recovery already got exactly right, so
// the score isolates the *type* question on top of Figure 7's
// positional one.
func typedCorpus() {
	fmt.Println("typed slots over the benchmark corpus (vs -emit-types ground truth):")
	var total layout.TypeAccuracy
	for _, prog := range progs.All {
		p := bench.Scaled(prog, 6)
		img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
		if err != nil {
			log.Fatal(err)
		}
		pl, err := core.LiftBinaryOpts(img, p.Inputs(), core.Options{Types: true})
		if err != nil {
			log.Fatal(err)
		}
		if err := pl.Refine(); err != nil {
			log.Fatal(err)
		}
		acc := layout.CompareTyped(img.TypedTruth, pl.Typed)
		total.Add(acc)
		fmt.Printf("  %-12s claims=%2d truth=%2d  precision=%.3f recall=%.3f\n",
			p.Name, acc.Claims, acc.TruthSlots, acc.Precision(), acc.Recall())
	}
	fmt.Printf("  %-12s claims=%2d truth=%2d  precision=%.3f recall=%.3f\n",
		"corpus", total.Claims, total.TruthSlots, total.Precision(), total.Recall())
	if total.Precision() < 0.9 {
		log.Fatalf("corpus type precision %.3f below the 0.9 bar", total.Precision())
	}
}

func main() {
	// sizeof(b) = 24; divisor 12 makes f3 return 2, so the traced store
	// lands in b[2] and links the whole array into one object.
	show("f3 returns 2 (access to the third element observed):", analyze(12))

	// Divisor 100 makes f3 return 0 on every traced input: the analysis
	// has no evidence that b[0] and b[1] belong together, so b splits —
	// exactly the behaviour §4.2 describes. The recompiled program still
	// behaves correctly for every traced input.
	show("f3 returns 0 in every trace (the paper's splitting case):", analyze(100))

	typedCorpus()
}
