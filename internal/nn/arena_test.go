package nn

import (
	"testing"

	"selsync/internal/tensor"
)

func TestBindArenaPreservesValuesAndLayout(t *testing.T) {
	rng := tensor.NewRNG(3)
	ps := []*Param{NewParam("a", 5), NewParam("b", 3), NewParam("c", 7)}
	for _, p := range ps {
		rng.NormVector(p.Data, 0, 1)
		rng.NormVector(p.Grad, 0, 1)
	}
	wantData := tensor.NewVector(15)
	wantGrad := tensor.NewVector(15)
	FlattenParams(ps, wantData)
	FlattenGrads(ps, wantGrad)

	a := BindArena(ps)
	if a.Dim() != 15 {
		t.Fatalf("arena dim: %d", a.Dim())
	}
	for i := range wantData {
		if a.Data[i] != wantData[i] || a.Grad[i] != wantGrad[i] {
			t.Fatalf("arena values differ at %d", i)
		}
	}
	// Writing through a Param must be visible in the arena and vice versa.
	ps[1].Data[0] = 42
	if a.Data[5] != 42 {
		t.Fatal("param write not visible in arena")
	}
	a.Grad[5+3] = -7 // first element of c's grad
	if ps[2].Grad[0] != -7 {
		t.Fatal("arena write not visible in param")
	}
}

func TestArenaViewDetectsContiguity(t *testing.T) {
	ps := []*Param{NewParam("a", 4), NewParam("b", 6)}
	if _, _, ok := ArenaView(ps); ok {
		t.Fatal("individually allocated params must not report an arena")
	}
	a := BindArena(ps)
	data, grad, ok := ArenaView(ps)
	if !ok {
		t.Fatal("bound params must report an arena")
	}
	if &data[0] != &a.Data[0] || &grad[0] != &a.Grad[0] || len(data) != 10 || len(grad) != 10 {
		t.Fatal("ArenaView must return the full arena vectors")
	}
}

func TestArenaViewRejectsReordered(t *testing.T) {
	ps := []*Param{NewParam("a", 4), NewParam("b", 6)}
	BindArena(ps)
	swapped := []*Param{ps[1], ps[0]}
	if _, _, ok := ArenaView(swapped); ok {
		t.Fatal("reordered params must not report an arena")
	}
}

func TestFeedForwardNetIsArenaBacked(t *testing.T) {
	for _, name := range ZooNames() {
		net := Zoo()[name].New(1)
		a := net.Arena()
		if a == nil || a.Dim() != ParamCount(net.Params()) {
			t.Fatalf("%s: bad arena", name)
		}
		data, grad, ok := ArenaView(net.Params())
		if !ok {
			t.Fatalf("%s: zoo params must be arena-contiguous", name)
		}
		if &data[0] != &a.Data[0] || &grad[0] != &a.Grad[0] {
			t.Fatalf("%s: ArenaView disagrees with Arena()", name)
		}
		// Flattening through the copy path must agree with the arena view:
		// the arena IS the canonical flat layout.
		flat := tensor.NewVector(a.Dim())
		FlattenParams(net.Params(), flat)
		for i := range flat {
			if flat[i] != a.Data[i] {
				t.Fatalf("%s: arena layout mismatch at %d", name, i)
			}
		}
	}
}

func TestSequentialParamsMemoized(t *testing.T) {
	rng := tensor.NewRNG(1)
	seq := NewSequential(NewDense("d1", 4, 4, rng), NewReLU(), NewDense("d2", 4, 2, rng))
	p1 := seq.Params()
	p2 := seq.Params()
	if len(p1) != 4 {
		t.Fatalf("params: %d", len(p1))
	}
	if &p1[0] != &p2[0] {
		t.Fatal("Params must return the memoized slice, not a fresh copy")
	}
}
