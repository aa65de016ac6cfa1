package comm

import (
	"fmt"
	"math"
	"testing"

	"selsync/internal/tensor"
)

// TestReduceEntryPointsAgreeUnderIdentity: one pipeline, three doors. Over
// 1, 2 and 4 ranks the three Reduce* entry points under the identity codec
// leave identical dst bits on every rank — the plain tensor.Average fold —
// and the two ledger-writing ones leave exactly the AccountPush/AccountPull
// numbers the dense round leaves. The bucketed door is a forward: its
// buckets do not cut the round, so it charges the whole vector's framing.
func TestReduceEntryPointsAgreeUnderIdentity(t *testing.T) {
	const workers, dim = 4, 3 * ChunkElems
	fx := newReduceFixture(workers, dim, 23)
	want := tensor.NewVector(dim)
	tensor.Average(want, fx.vecs)
	buckets := [][2]int{{0, 5}, {5, ChunkElems}, {ChunkElems, dim}}

	ledger := NewLoopback(workers)
	ledger.AccountPush(workers, dim)
	ledger.AccountPull(workers, dim)

	for _, tc := range []struct {
		name   string
		ledger Stats
		run    func(m *Mesh, dst tensor.Vector) error
	}{
		{"ReduceMean", Stats{}, func(m *Mesh, dst tensor.Vector) error {
			return m.ReduceMean(dst, fx.ids, fx.view)
		}},
		{"ReduceMeanCodec", *ledger.Stats(), func(m *Mesh, dst tensor.Vector) error {
			return m.ReduceMeanCodec(dst, nil, fx.ids, fx.view)
		}},
		{"ReduceMeanCodecBuckets", *ledger.Stats(), func(m *Mesh, dst tensor.Vector) error {
			return m.ReduceMeanCodecBuckets(dst, nil, fx.ids, fx.view, buckets, nil)
		}},
	} {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				eps := NewLoopbackEndpoints(procs)
				defer closeAll(eps)
				ms := meshes(t, eps, workers)
				results := make([]tensor.Vector, procs)
				parallelRanks(t, eps, func(ep Endpoint) error {
					results[ep.Rank()] = tensor.NewVector(dim)
					return tc.run(ms[ep.Rank()], results[ep.Rank()])
				})
				for r, got := range results {
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("rank %d: element %d = %v, flat average %v", r, i, got[i], want[i])
						}
					}
					if *ms[r].Stats() != tc.ledger {
						t.Fatalf("rank %d ledger %+v, want %+v", r, *ms[r].Stats(), tc.ledger)
					}
				}
			})
		}
	}
}

// TestLossyRoundRefusesElasticMesh: a mesh that turned elastic after
// SetCodec still runs the identity codec's parameter-server round over
// whoever is alive, but a lossy codec's round is refused on every rank
// before a frame moves, while the diagnostic read, always dense, still runs.
func TestLossyRoundRefusesElasticMesh(t *testing.T) {
	const workers, procs, dim = 4, 2, 2 * ChunkElems
	fx := newReduceFixture(workers, dim, 31)
	q8, err := ParseCodec("q8")
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []Codec{{}, q8} {
		eps := NewLoopbackEndpoints(procs)
		ms := meshes(t, eps, workers)
		parallelRanks(t, eps, func(ep Endpoint) error {
			m := ms[ep.Rank()]
			if err := m.SetCodec(codec); err != nil {
				return err
			}
			m.EnableElastic(0)
			dst := tensor.NewVector(dim)
			err := m.ReduceMeanCodec(dst, nil, fx.ids, fx.view)
			switch {
			case codec.Nop() && err != nil:
				return fmt.Errorf("identity round on an elastic mesh: %w", err)
			case !codec.Nop() && err == nil:
				return fmt.Errorf("%s round ran on an elastic mesh", codec)
			}
			if err := m.ReduceMean(dst, fx.ids, fx.view); err != nil {
				return fmt.Errorf("diagnostic read on an elastic mesh under %s: %w", codec, err)
			}
			return nil
		})
		closeAll(eps)
	}
}

// TestBucketsForwardIsOneRound: ReduceMeanCodecBuckets calls wait once per
// bucket, in descending order, before any frame moves, then leaves exactly
// ReduceMeanCodec's bits and ledger on every rank — here two top-k rounds on
// the parameter path, whose error feedback carries over from round to round.
func TestBucketsForwardIsOneRound(t *testing.T) {
	const workers, procs, dim = 4, 2, 2*ChunkElems + 9
	fx := newReduceFixture(workers, dim, 47)
	buckets := [][2]int{{0, 100}, {100, ChunkElems}, {ChunkElems, dim}}
	codec, err := ParseCodec("topk:0.05")
	if err != nil {
		t.Fatal(err)
	}
	ref := tensor.NewVector(dim)
	for i := range ref {
		ref[i] = math.Cos(float64(i))
	}
	run := func(forward bool) ([]tensor.Vector, []Stats) {
		eps := NewLoopbackEndpoints(procs)
		defer closeAll(eps)
		ms := meshes(t, eps, workers)
		dsts, ledgers := make([]tensor.Vector, procs), make([]Stats, procs)
		parallelRanks(t, eps, func(ep Endpoint) error {
			m := ms[ep.Rank()]
			if err := m.SetCodec(codec); err != nil {
				return err
			}
			dst := tensor.NewVector(dim)
			for round := 0; round < 2; round++ {
				if !forward {
					if err := m.ReduceMeanCodec(dst, ref, fx.ids, fx.view); err != nil {
						return err
					}
					continue
				}
				var waited []int
				sent := m.Endpoint().NetStats().FramesSent
				wait := func(b int) {
					if m.Endpoint().NetStats().FramesSent != sent {
						b = -1 // a frame moved before this wait
					}
					waited = append(waited, b)
				}
				if err := m.ReduceMeanCodecBuckets(dst, ref, fx.ids, fx.view, buckets, wait); err != nil {
					return err
				}
				if fmt.Sprint(waited) != "[2 1 0]" {
					return fmt.Errorf("rank %d: waits %v (-1: after a frame moved), want [2 1 0] first", ep.Rank(), waited)
				}
			}
			dsts[ep.Rank()], ledgers[ep.Rank()] = dst, *m.Stats()
			return nil
		})
		return dsts, ledgers
	}
	got, gotLedger := run(true)
	want, wantLedger := run(false)
	for r := range got {
		for i := range got[r] {
			if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
				t.Fatalf("rank %d: element %d = %v, ReduceMeanCodec %v", r, i, got[r][i], want[r][i])
			}
		}
		if gotLedger[r] != wantLedger[r] {
			t.Fatalf("rank %d: ledger %+v, ReduceMeanCodec %+v", r, gotLedger[r], wantLedger[r])
		}
	}
}

// alternateRoundSizes runs three pairs of a model-sized dense round and a
// single-contribution round of a few hundred evaluation rows — the sizes a
// run alternates between — on every rank, checks that the small round
// delivers its one vector unchanged, and calls after with the rank's mesh
// once each pair is done. elastic runs the rounds on an elastic mesh.
func alternateRoundSizes(t *testing.T, elastic bool, after func(m *Mesh, round int) error) {
	t.Helper()
	const workers, procs, dim, small = 2, 2, ChunkElems + 7, 130
	fx := newReduceFixture(workers, dim, 37)
	eps := NewLoopbackEndpoints(procs)
	defer closeAll(eps)
	ms := meshes(t, eps, workers)
	parallelRanks(t, eps, func(ep Endpoint) error {
		m := ms[ep.Rank()]
		if elastic {
			m.EnableElastic(0)
		}
		big, rows := tensor.NewVector(dim), tensor.NewVector(small)
		one := func(int) tensor.Vector { return fx.vecs[1][:small] }
		for round := 0; round < 3; round++ {
			if err := m.ReduceMean(big, fx.ids, fx.view); err != nil {
				return err
			}
			if err := m.ReduceMean(rows, []int{1}, one); err != nil {
				return err
			}
			for i, v := range rows {
				if math.Float64bits(v) != math.Float64bits(fx.vecs[1][i]) {
					return fmt.Errorf("rank %d: row %d = %v, the one contribution is %v", ep.Rank(), i, v, fx.vecs[1][i])
				}
			}
			if err := after(m, round); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestRelayStagesNothing: on a static mesh the dense rounds relay, so no
// rank keeps a staging vector for anybody's contribution, whatever sizes
// the rounds alternate between.
func TestRelayStagesNothing(t *testing.T) {
	alternateRoundSizes(t, false, func(m *Mesh, round int) error {
		if len(m.recvBufs) != 0 {
			return fmt.Errorf("rank %d, round %d: %d staging vectors", m.rank, round, len(m.recvBufs))
		}
		return nil
	})
}

// TestReduceStagingServesRoundsOfEverySize: where the round still gathers
// (an elastic mesh), rank 0 keeps one staging vector per remote worker and a
// smaller round borrows it — each switch between a model-sized round and an
// evaluation's rows used to allocate a fresh vector.
func TestReduceStagingServesRoundsOfEverySize(t *testing.T) {
	const dim = ChunkElems + 7
	var staged *float64
	alternateRoundSizes(t, true, func(m *Mesh, round int) error {
		if m.rank != 0 {
			return nil
		}
		if buf := m.recvBufs[1]; round == 0 {
			staged = &buf[0]
		} else if &buf[0] != staged || cap(buf) < dim {
			return fmt.Errorf("round %d: worker 1's staging vector was replaced (cap %d)", round, cap(buf))
		}
		return nil
	})
}

// TestLoopbackIsAOneRankMesh pins what NewLoopback hands out: a mesh that
// runs a whole sync round without framing anything, owns no wire buffers,
// and still polices its arguments like any mesh.
func TestLoopbackIsAOneRankMesh(t *testing.T) {
	const workers, dim = 4, ChunkElems + 100
	fx := newReduceFixture(workers, dim, 29)
	var lb Fabric = NewLoopback(workers)
	defer lb.Close()
	if lb.Rank() != 0 || lb.Procs() != 1 || len(lb.LocalWorkers()) != workers || !lb.Hosts(workers-1) || lb.Hosts(workers) {
		t.Fatalf("one-rank layout wrong: rank %d of %d hosting %v", lb.Rank(), lb.Procs(), lb.LocalWorkers())
	}

	flags := make([]bool, workers)
	flags[2] = true
	dst := tensor.NewVector(dim)
	if err := lb.AllGatherFlags(flags); err != nil {
		t.Fatal(err)
	}
	if err := lb.ReduceMeanCodec(dst, nil, fx.ids, fx.view); err != nil {
		t.Fatal(err)
	}
	lb.FanOut([]tensor.Vector{tensor.NewVector(dim)}, dst)
	if x, err := lb.MaxFloat(2.5); err != nil || x != 2.5 {
		t.Fatalf("MaxFloat = %v, %v", x, err)
	}
	if !flags[2] || flags[0] {
		t.Fatalf("flags disturbed: %v", flags)
	}

	m := lb.(*Mesh)
	ns := m.Endpoint().NetStats()
	if ns.FramesSent != 0 || ns.FramesRecv != 0 || ns.BytesSent != 0 || ns.BytesRecv != 0 || ns.Redials != 0 || ns.Timeouts != 0 {
		t.Fatalf("a one-rank sync round touched the transport: %+v", ns)
	}
	if cap(m.scratch) >= ChunkElems*8 {
		t.Fatalf("one-rank mesh holds a %d-byte wire scratch", cap(m.scratch))
	}
	if ch := m.ep.(*chanEndpoint).inbox[0]; ch != nil {
		t.Fatalf("one-rank endpoint holds a %d-slot self inbox", cap(ch))
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a mis-sized flags slice must panic on a one-rank mesh too")
		}
	}()
	lb.AllGatherFlags(make([]bool, workers+1))
}
