package ir_test

import (
	"slices"
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// TestBuildUses checks the dense use index on a two-block loop: users come
// in block order (phis before instructions) with one entry per operand
// position, parameters and phi operands are indexed, nil operands are
// skipped, and a value created after the index was built has no users.
func TestBuildUses(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 1
	p := f.NewParam(isa.EAX, "x")
	entry := f.NewBlock(0)
	loop := f.NewBlock(0)
	k := entry.Append(f.NewValue(ir.OpConst))
	entry.Append(f.NewValue(ir.OpJmp))
	entry.Succs = []*ir.Block{loop}
	loop.Preds = []*ir.Block{entry, loop}
	loop.Succs = []*ir.Block{loop}
	phi := loop.AddPhi(f.NewValue(ir.OpPhi, p, nil))
	sq := loop.Append(f.NewValue(ir.OpMul, phi, phi)) // phi used twice
	sum := loop.Append(f.NewValue(ir.OpAdd, sq, k))
	phi.Args[1] = sum
	gap := loop.Append(f.NewValue(ir.OpStore, nil, p)) // nil operand
	loop.Append(f.NewValue(ir.OpJmp))

	u := ir.BuildUses(f)
	late := f.NewValue(ir.OpConst)
	for _, tc := range []struct {
		v    *ir.Value
		want []*ir.Value
	}{
		{p, []*ir.Value{phi, gap}},
		{k, []*ir.Value{sum}},
		{phi, []*ir.Value{sq, sq}},
		{sq, []*ir.Value{sum}},
		{sum, []*ir.Value{phi}},
		{gap, nil},
		{late, nil},
	} {
		if got := u.Of(tc.v); !slices.Equal(got, tc.want) {
			t.Errorf("Of(%s) = %v, want %v", tc.v, got, tc.want)
		}
	}
	if f.NumValueIDs() != late.ID+1 {
		t.Errorf("NumValueIDs = %d, want %d", f.NumValueIDs(), late.ID+1)
	}
	// The index is a snapshot: rewriting an operand leaves it as it was
	// until it is rebuilt.
	sum.Args[1] = p
	if got := u.Of(k); !slices.Equal(got, []*ir.Value{sum}) {
		t.Errorf("snapshot Of(k) = %v after a rewrite, want [%s]", got, sum)
	}
	u = ir.BuildUses(f)
	if got := u.Of(k); len(got) != 0 {
		t.Errorf("rebuilt Of(k) = %v, want none", got)
	}
	if got := u.Of(p); !slices.Equal(got, []*ir.Value{phi, sum, gap}) {
		t.Errorf("rebuilt Of(p) = %v, want [%s %s %s]", got, phi, sum, gap)
	}
}

// TestBuildUsesEmpty covers a function without users of any value.
func TestBuildUsesEmpty(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1000)
	b := f.NewBlock(0)
	v := b.Append(f.NewValue(ir.OpRet))
	if got := ir.BuildUses(f).Of(v); len(got) != 0 {
		t.Errorf("Of(ret) = %v, want none", got)
	}
	var zero ir.Uses
	if got := zero.Of(v); len(got) != 0 {
		t.Errorf("zero Uses: Of = %v, want none", got)
	}
}
