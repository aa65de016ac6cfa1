package data

import (
	"testing"
	"testing/quick"
)

func TestDefDPDisjointCoverage(t *testing.T) {
	parts := Partitions(DefDP, 100, 4, 1)
	if len(parts) != 4 {
		t.Fatalf("worker count: %d", len(parts))
	}
	seen := make(map[int]int)
	for w, p := range parts {
		if len(p) != 25 {
			t.Fatalf("worker %d chunk size %d", w, len(p))
		}
		for _, idx := range p {
			seen[idx]++
		}
	}
	if len(seen) != 100 {
		t.Fatalf("coverage: %d of 100", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("index %d appears %d times", idx, n)
		}
	}
}

func TestSelDPFullCoveragePerWorker(t *testing.T) {
	parts := Partitions(SelDP, 100, 4, 1)
	for w, p := range parts {
		if len(p) != 100 {
			t.Fatalf("worker %d sees %d of 100", w, len(p))
		}
		seen := make(map[int]bool)
		for _, idx := range p {
			if seen[idx] {
				t.Fatalf("worker %d sees index %d twice", w, idx)
			}
			seen[idx] = true
		}
	}
}

func TestSelDPRotationProperty(t *testing.T) {
	// Worker w's k-th chunk must equal worker 0's (w+k)%N-th chunk; at any
	// synchronized step all workers therefore process distinct chunks.
	const n, workers = 120, 4
	chunkLen := n / workers
	parts := Partitions(SelDP, n, workers, 7)
	chunkOf := func(w, k int) []int { return parts[w][k*chunkLen : (k+1)*chunkLen] }
	for w := 0; w < workers; w++ {
		for k := 0; k < workers; k++ {
			want := chunkOf(0, (w+k)%workers)
			got := chunkOf(w, k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("worker %d chunk %d mismatch", w, k)
				}
			}
		}
	}
	// Distinctness at every position k.
	for k := 0; k < workers; k++ {
		firsts := make(map[int]bool)
		for w := 0; w < workers; w++ {
			firsts[chunkOf(w, k)[0]] = true
		}
		if len(firsts) != workers {
			t.Fatalf("chunk position %d reuses a chunk across workers", k)
		}
	}
}

func TestSelDPAndDefDPShareChunks(t *testing.T) {
	// DefDP's chunk w must equal SelDP worker w's first chunk (same seed):
	// the schemes differ only in ordering, not in the underlying split.
	defp := Partitions(DefDP, 80, 4, 3)
	selp := Partitions(SelDP, 80, 4, 3)
	for w := 0; w < 4; w++ {
		for i, idx := range defp[w] {
			if selp[w][i] != idx {
				t.Fatalf("worker %d first chunk differs between schemes", w)
			}
		}
	}
}

func TestPartitionsRemainderDropped(t *testing.T) {
	parts := Partitions(DefDP, 103, 4, 1) // 103/4 = 25 remainder 3
	for _, p := range parts {
		if len(p) != 25 {
			t.Fatalf("chunk len %d want 25", len(p))
		}
	}
}

func TestPartitionsPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Partitions(DefDP, 10, 0, 1) },
		func() { Partitions(DefDP, 3, 4, 1) },
		func() { Partitions(Scheme(99), 10, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSchemeString(t *testing.T) {
	if DefDP.String() != "DefDP" || SelDP.String() != "SelDP" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(9).String() == "" {
		t.Fatal("unknown scheme should still print")
	}
}

// Property: for any (n, workers, seed), DefDP chunks are disjoint and SelDP
// worker lists are permutations of the same index set.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed uint64, rawN, rawW uint8) bool {
		workers := int(rawW%8) + 1
		n := workers * (int(rawN%16) + 1)
		defp := Partitions(DefDP, n, workers, seed)
		selp := Partitions(SelDP, n, workers, seed)
		all := make(map[int]bool)
		for _, p := range defp {
			for _, idx := range p {
				if all[idx] {
					return false
				}
				all[idx] = true
			}
		}
		if len(all) != n {
			return false
		}
		for _, p := range selp {
			if len(p) != n {
				return false
			}
			seen := make(map[int]bool, n)
			for _, idx := range p {
				if seen[idx] || !all[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
