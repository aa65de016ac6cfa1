package nn

import (
	"runtime"
	"testing"

	"selsync/internal/tensor"
)

// bind binds l's parameters onto an arena of their own and draws its
// initial state from rng (nothing for a nil rng): a layer used outside a
// network, built the way Factory.Build builds one inside it.
func bind[L Layer](rng *tensor.RNG, l L) L {
	NewArena(l.Params())
	Init(rng, l)
	return l
}

func TestNewArenaLayout(t *testing.T) {
	ps := []*Param{NewParam("a", 5), NewParam("b", 3), NewParam("c", 7)}
	for _, p := range ps {
		if p.Data != nil || p.Grad != nil {
			t.Fatal("NewParam must not allocate")
		}
	}
	a := NewArena(ps)
	if a.Dim() != 15 || len(a.Grad) != 15 {
		t.Fatalf("arena dim: %d", a.Dim())
	}
	for i, want := range []int{5, 3, 7} {
		if len(ps[i].Data) != want || len(ps[i].Grad) != want {
			t.Fatalf("param %d: windows of %d/%d, want %d", i, len(ps[i].Data), len(ps[i].Grad), want)
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
	loose := []*Param{
		{Name: "a", Data: tensor.NewVector(4), Grad: tensor.NewVector(4)},
		{Name: "b", Data: tensor.NewVector(6), Grad: tensor.NewVector(6)},
	}
	if _, _, ok := ArenaView(loose); ok {
		t.Fatal("individually allocated params must not report an arena")
	}
	ps := []*Param{NewParam("a", 4), NewParam("b", 6)}
	a := NewArena(ps)
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
	NewArena(ps)
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
	seq := NewSequential(NewDense("d1", 4, 4), NewReLU(), NewDense("d2", 4, 2))
	p1 := seq.Params()
	p2 := seq.Params()
	if len(p1) != 4 {
		t.Fatalf("params: %d", len(p1))
	}
	if &p1[0] != &p2[0] {
		t.Fatal("Params must return the memoized slice, not a fresh copy")
	}
}

// TestBuildAllocatesOneArena: a network built without drawing costs its
// arena and the layer headers, nothing per parameter — ResNetLite(10, 6)
// is 3.22 MB of arena, so 64 KiB of slack leaves no room for a second copy
// of any of its weight matrices.
func TestBuildAllocatesOneArena(t *testing.T) {
	f := ResNetLite(10, 6)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	net := f.Build(nil)
	runtime.ReadMemStats(&after)
	arena := uint64(16 * net.Arena().Dim())
	if got := after.TotalAlloc - before.TotalAlloc; got > arena+64<<10 {
		t.Fatalf("Build(nil) allocated %d B, its arena is %d B", got, arena)
	}
	if _, _, ok := ArenaView(net.Params()); !ok {
		t.Fatal("parameters must be windows of the arena")
	}
}
