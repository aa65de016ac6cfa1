package comm_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"selsync/internal/comm"
	"selsync/internal/comm/commtest"
	"selsync/internal/tensor"
)

// workerVec builds a deterministic per-worker contribution for a round.
func workerVec(id, dim, round int) tensor.Vector {
	v := tensor.NewVector(dim)
	for i := range v {
		v[i] = math.Sin(float64(id*31+i)*0.7+float64(round)) * float64((i+id)%17)
	}
	return v
}

// runCodecRounds drives `rounds` codec reductions (with or without a ref
// vector, through the bucketed forward when buckets is non-nil) on a fabric
// and returns the concatenated dst of every round.
func runCodecRounds(t testing.TB, f comm.Fabric, codec comm.Codec, dim, rounds int, withRef bool, buckets [][2]int) []float64 {
	if err := f.SetCodec(codec); err != nil {
		t.Fatalf("SetCodec: %v", err)
	}
	ids := make([]int, f.Workers())
	for i := range ids {
		ids[i] = i
	}
	vecs := map[int]tensor.Vector{}
	dst := tensor.NewVector(dim)
	var ref tensor.Vector
	if withRef {
		ref = tensor.NewVector(dim)
		for i := range dst {
			dst[i] = math.Cos(float64(i)) // the evolving "global" state
		}
	}
	var out []float64
	for r := 0; r < rounds; r++ {
		for _, id := range f.LocalWorkers() {
			vecs[id] = workerVec(id, dim, r)
		}
		view := func(id int) tensor.Vector { return vecs[id] }
		if withRef {
			ref.CopyFrom(dst)
		}
		var err error
		if buckets != nil {
			err = f.ReduceMeanCodecBuckets(dst, ref, ids, view, buckets, nil)
		} else {
			err = f.ReduceMeanCodec(dst, ref, ids, view)
		}
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		out = append(out, dst...)
	}
	return out
}

// Every backend — the Loopback fabric, a mesh over in-process channels,
// and a mesh over real TCP — must produce bit-identical reduction results
// and identical logical ledgers for every codec, on both the gradient
// (ref=nil) and parameter (delta-vs-ref) paths. The bucketed arm drives the
// meshes through the ReduceMeanCodecBuckets forward and still compares them
// with the Loopback fabric's plain rounds: the buckets do not cut a round.
func TestCodecReduceBackendEquivalence(t *testing.T) {
	const procs, workers, dim, rounds = 4, 8, 3000, 3
	buckets := [][2]int{{0, 700}, {700, 1900}, {1900, dim}}
	specs := []string{"none", "topk:0.05", "q8", "q16", "partial:0.5", "partial:0.4,0.9"}
	for _, spec := range specs {
		for _, withRef := range []bool{false, true} {
			for _, bucketed := range []bool{false, true} {
				name := fmt.Sprintf("%s/ref=%v/buckets=%v", spec, withRef, bucketed)
				t.Run(name, func(t *testing.T) {
					codec, err := comm.ParseCodec(spec)
					if err != nil {
						t.Fatal(err)
					}
					var bk [][2]int
					if bucketed {
						bk = buckets
					}
					// Reference: the single-process Loopback fabric's plain rounds.
					lb := comm.NewLoopback(workers)
					want := runCodecRounds(t, lb, codec, dim, rounds, withRef, nil)
					wantStats := *lb.Stats()

					for _, loopbackEP := range []bool{true, false} {
						results, stats := commtest.RunRanksOpts(t, procs, workers,
							commtest.Options{Loopback: loopbackEP},
							func(rank int, f comm.Fabric) []float64 {
								return runCodecRounds(t, f, codec, dim, rounds, withRef, bk)
							})
						for r, got := range results {
							if len(got) != len(want) {
								t.Fatalf("ep-loopback=%v rank %d: %d values, want %d", loopbackEP, r, len(got), len(want))
							}
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("ep-loopback=%v rank %d: value %d = %v, loopback fabric %v", loopbackEP, r, i, got[i], want[i])
								}
							}
						}
						if *stats != wantStats {
							t.Fatalf("ep-loopback=%v: mesh ledger %+v, loopback fabric ledger %+v", loopbackEP, *stats, wantStats)
						}
					}
				})
			}
		}
	}
}

// The ledger must reflect codec-exact byte counts: top-k at 1% on a large
// vector must cut logical bytes by well over 4× vs the dense codec.
func TestCodecLedgerReduction(t *testing.T) {
	const workers, dim, rounds = 8, 200_000, 4
	bytesFor := func(spec string) int64 {
		codec, err := comm.ParseCodec(spec)
		if err != nil {
			t.Fatal(err)
		}
		lb := comm.NewLoopback(workers)
		runCodecRounds(t, lb, codec, dim, rounds, false, nil)
		s := lb.Stats()
		return s.Bytes.Recv + s.Bytes.Sent
	}
	dense := bytesFor("none")
	sparse := bytesFor("topk:0.01")
	if sparse*4 >= dense {
		t.Fatalf("topk:0.01 logical bytes %d not ≥4× below dense %d", sparse, dense)
	}
	q8 := bytesFor("q8")
	if q8*4 >= dense {
		t.Fatalf("q8 logical bytes %d not ≥4× below dense %d", q8, dense)
	}
}

// SetCodec must reject mismatched codecs across ranks (negotiation) and
// elastic membership.
func TestCodecNegotiationMismatch(t *testing.T) {
	results, _ := commtest.RunRanks(t, 2, 2, func(rank int, f comm.Fabric) error {
		spec := "q8"
		if rank == 1 {
			spec = "q16"
		}
		codec, _ := comm.ParseCodec(spec)
		return f.SetCodec(codec)
	})
	anyErr := false
	for _, err := range results {
		if err != nil {
			anyErr = true
		}
	}
	if !anyErr {
		t.Fatal("mismatched codec negotiation succeeded on every rank")
	}
}

func TestCodecRejectsElasticMesh(t *testing.T) {
	results, _ := commtest.RunRanks(t, 2, 2, func(rank int, f comm.Fabric) error {
		m := f.(*comm.Mesh)
		m.EnableElastic(0)
		codec, _ := comm.ParseCodec("q8")
		return m.SetCodec(codec)
	})
	for r, err := range results {
		if err == nil {
			t.Fatalf("rank %d: SetCodec on elastic mesh succeeded", r)
		}
	}
}

// Snapshot/restore must reproduce the exact continuation: run 6 rounds
// straight, vs snapshot after 3 and resume in a fresh fabric.
func TestCodecSnapshotResumeBitIdentical(t *testing.T) {
	const workers, dim = 4, 500
	for _, spec := range []string{"topk:0.1", "q8", "partial:0.3"} {
		codec, _ := comm.ParseCodec(spec)
		full := comm.NewLoopback(workers)
		want := runCodecRounds(t, full, codec, dim, 6, false, nil)

		first := comm.NewLoopback(workers)
		head := runCodecRounds(t, first, codec, dim, 3, false, nil)
		snap := first.CodecSnapshot()
		if snap == nil {
			t.Fatalf("%s: nil snapshot", spec)
		}

		resumed := comm.NewLoopback(workers)
		if err := resumed.SetCodec(codec); err != nil {
			t.Fatal(err)
		}
		if err := resumed.RestoreCodecSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		got := append(append([]float64(nil), head...), runCodecRoundsFrom(t, resumed, dim, 3, 6)...)
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", spec, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: resumed value %d = %v, uninterrupted %v", spec, i, got[i], want[i])
			}
		}
	}
}

// runCodecRoundsFrom continues rounds [from, to) on an already-configured
// fabric, regenerating the same per-round worker vectors.
func runCodecRoundsFrom(t testing.TB, f comm.Fabric, dim, from, to int) []float64 {
	ids := make([]int, f.Workers())
	for i := range ids {
		ids[i] = i
	}
	vecs := map[int]tensor.Vector{}
	dst := tensor.NewVector(dim)
	var out []float64
	for r := from; r < to; r++ {
		for _, id := range f.LocalWorkers() {
			vecs[id] = workerVec(id, dim, r)
		}
		if err := f.ReduceMeanCodec(dst, nil, ids, func(id int) tensor.Vector { return vecs[id] }); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		out = append(out, dst...)
	}
	return out
}

// exchangeRound is one round of an exchange plan: the contributing ids, in
// fold order, and whether the round runs on the parameter path (deltas
// against the previous global state).
type exchangeRound struct {
	ids     []int
	withRef bool
}

// exchangePlan lists the rounds TestCodecExchangeMatchesOneRank drives on a
// mesh of procs ranks hosting perRank workers each. For every id order —
// every id, the reverse, a seeded FedAvg-style shuffle of a subset with one
// id twice, and the last worker alone — it runs the gradient and the
// parameter path, rounds consecutive rounds each. allOnly keeps the first
// order.
func exchangePlan(procs, perRank, dim, rounds int, allOnly bool) []exchangeRound {
	workers := procs * perRank
	all, rev := make([]int, workers), make([]int, workers)
	for i := range all {
		all[i], rev[workers-1-i] = i, i
	}
	perm := tensor.NewRNG(uint64(7*workers + procs)).Perm(workers)
	n := workers/2 + 1
	orders := [][]int{all, rev, append(perm[:n:n], perm[0]), {workers - 1}}
	if allOnly {
		orders = orders[:1]
	}
	var plan []exchangeRound
	for _, ids := range orders {
		for _, withRef := range []bool{false, true} {
			for r := 0; r < rounds; r++ {
				plan = append(plan, exchangeRound{ids, withRef})
			}
		}
	}
	return plan
}

// exchangeState is what one rank holds after one round: the result, its
// replica of the downlink residual and its ledger.
type exchangeState struct {
	dst, down []float64
	ledger    comm.Stats
}

// runExchangePlan negotiates codec and runs plan on f, worker id
// contributing workerVec(id, dim, round); a round on the parameter path
// takes the previous round's result as its reference. It panics on any
// error, which the rank harness reports as a test failure.
func runExchangePlan(f comm.Fabric, codec comm.Codec, plan []exchangeRound, dim int) []exchangeState {
	if err := f.SetCodec(codec); err != nil {
		panic(err)
	}
	vecs := map[int]tensor.Vector{}
	view := func(id int) tensor.Vector { return vecs[id] }
	dst, ref := tensor.NewVector(dim), tensor.NewVector(dim)
	for i := range dst {
		dst[i] = math.Cos(float64(i))
	}
	var out []exchangeState
	for r, round := range plan {
		for _, id := range f.LocalWorkers() {
			vecs[id] = workerVec(id, dim, r)
		}
		var rf tensor.Vector
		if round.withRef {
			ref.CopyFrom(dst)
			rf = ref
		}
		if err := f.ReduceMeanCodec(dst, rf, round.ids, view); err != nil {
			panic(fmt.Sprintf("round %d: %v", r, err))
		}
		snap := f.CodecSnapshot()
		out = append(out, exchangeState{append([]float64(nil), dst...), snap.Down, *f.Stats()})
	}
	return out
}

// TestCodecExchangeMatchesOneRank: the lossy round leaves on every rank of a
// 2-, 3- or 4-rank mesh, over channel and TCP endpoints, with 1 to 3 workers
// a rank, exactly the bits a one-rank mesh leaves — its result and its
// replica of the downlink residual — and the same ledger, round after
// round, for every codec and every plan of exchangePlan. A larger vector
// whose messages span several chunks runs the every-id plan once more.
func TestCodecExchangeMatchesOneRank(t *testing.T) {
	const rounds = 4
	specs := []string{"topk:0.01", "topk:0.37", "q8", "q16", "partial:0.25", "partial:0.3,0.7"}
	type shape struct {
		procs, perRank, dim int
		allOnly             bool
	}
	var shapes []shape
	for _, procs := range []int{2, 3, 4} {
		for _, perRank := range []int{1, 2, 3} {
			shapes = append(shapes, shape{procs, perRank, 1000, false})
		}
	}
	shapes = append(shapes, shape{2, 2, 3*comm.ChunkElems + 1, true})
	for _, spec := range specs {
		codec, err := comm.ParseCodec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/%dx%d/dim=%d", spec, sh.procs, sh.perRank, sh.dim), func(t *testing.T) {
				workers := sh.procs * sh.perRank
				plan := exchangePlan(sh.procs, sh.perRank, sh.dim, rounds, sh.allOnly)
				want := runExchangePlan(comm.NewLoopback(workers), codec, plan, sh.dim)
				for _, transport := range []string{"chan", "tcp"} {
					got, _ := commtest.RunRanksOpts(t, sh.procs, workers,
						commtest.Options{Loopback: transport == "chan", OpTimeout: 20 * time.Second},
						func(rank int, f comm.Fabric) []exchangeState { return runExchangePlan(f, codec, plan, sh.dim) })
					for rank, states := range got {
						for r, st := range states {
							w := want[r]
							where := fmt.Sprintf("%s rank %d, round %d (ids %v, ref %v)",
								transport, rank, r, plan[r].ids, plan[r].withRef)
							if i := firstBitDiff(st.dst, w.dst); i >= 0 {
								t.Fatalf("%s: element %d = %v, one rank %v", where, i, st.dst[i], w.dst[i])
							}
							if len(st.down) != sh.dim {
								t.Fatalf("%s: downlink replica has %d elements, want %d", where, len(st.down), sh.dim)
							}
							if i := firstBitDiff(st.down, w.down); i >= 0 {
								t.Fatalf("%s: downlink residual %d = %v, one rank %v", where, i, st.down[i], w.down[i])
							}
							if st.ledger != w.ledger {
								t.Fatalf("%s: ledger %+v, one rank %+v", where, st.ledger, w.ledger)
							}
						}
					}
				}
			})
		}
	}
}

// firstBitDiff returns the first index at which two equally long vectors
// differ in any bit, -1 where there is none.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestExchangeRoundDoesNotAllocate: once its buffers are sized, a top-k round
// on two ranks of two workers over channel endpoints allocates nothing on
// either rank — no dense staging, no per-message frames, the peers' entries
// decoded into reused slots.
func TestExchangeRoundDoesNotAllocate(t *testing.T) {
	const procs, workers, dim = 2, 4, 2*comm.ChunkElems + 5
	codec, err := comm.ParseCodec("topk:0.01")
	if err != nil {
		t.Fatal(err)
	}
	eps := comm.NewLoopbackEndpoints(procs)
	ms := make([]*comm.Mesh, procs)
	for r, ep := range eps {
		if ms[r], err = comm.NewMesh(ep, workers); err != nil {
			t.Fatal(err)
		}
	}
	rng := tensor.NewRNG(3)
	vecs := make([]tensor.Vector, workers)
	ids := make([]int, workers)
	for w := range vecs {
		vecs[w] = tensor.NewVector(dim)
		rng.NormVector(vecs[w], 0, 1)
		ids[w] = w
	}
	view := func(w int) tensor.Vector { return vecs[w] }
	dsts := []tensor.Vector{tensor.NewVector(dim), tensor.NewVector(dim)}

	// Rank 1 runs a round per message on start and answers on done.
	start, done := make(chan bool), make(chan error)
	go func() {
		if err := ms[1].SetCodec(codec); err != nil {
			done <- err
			return
		}
		done <- nil
		for round := range start {
			if round {
				done <- ms[1].ReduceMeanCodec(dsts[1], nil, ids, view)
			}
		}
		done <- ms[1].Close()
	}()
	if err := ms[0].SetCodec(codec); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	round := func() {
		start <- true
		err := ms[0].ReduceMeanCodec(dsts[0], nil, ids, view)
		if e := <-done; err == nil {
			err = e
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(50, round)
	close(start)
	ms[0].Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per steady-state top-k exchange round, want 0", allocs)
	}
}
