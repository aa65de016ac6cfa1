package comm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"selsync/internal/tensor"
)

// relayIDCases lists the contribution orders a relay must reproduce on a
// mesh of procs ranks hosting perRank workers each: every id in order, the
// reverse, a seeded FedAvg-style shuffle of a subset with one id twice, and
// a single id owned by each rank in turn (SSP's events, the evaluation
// exchange).
func relayIDCases(procs, perRank int) (names []string, cases [][]int) {
	workers := procs * perRank
	all, rev := make([]int, workers), make([]int, workers)
	for i := range all {
		all[i], rev[workers-1-i] = i, i
	}
	perm := tensor.NewRNG(uint64(7*workers + procs)).Perm(workers)
	n := workers/2 + 1
	shuffle := append(perm[:n:n], perm[0])
	names = append(names, "all", "reversed", "shuffle+dup")
	cases = append(cases, all, rev, shuffle)
	for r := 0; r < procs; r++ {
		names = append(names, fmt.Sprintf("single@rank%d", r))
		cases = append(cases, []int{r*perRank + perRank - 1})
	}
	return names, cases
}

// TestRelayMatchesGatherBitForBit: the relayed dense round leaves on every
// rank exactly the bits a one-rank tensor.Average over the same views in
// ids order leaves — the gathered round's fold — and writes the ledger
// AccountPush/AccountPull write for its pushes and pulls, over 2, 3 and 4
// ranks, channel and TCP endpoints, 1 to 3 workers per rank, every order of
// relayIDCases, and vectors from a fraction of one window to many. The
// table runs again on the pure-Go kernels, where a sum folded four sources
// at a time must still associate like one folded a source at a time. A
// static mesh never gathers (checked last); the elastic-mesh tests cover the
// gather.
func TestRelayMatchesGatherBitForBit(t *testing.T) {
	dims := []int{7, ChunkElems - 1, ChunkElems, 2*ChunkElems + 5, c100Dim}
	// Contributions of different magnitudes, so that any change in the order
	// of the additions changes low bits; a mesh of W workers uses the first W.
	vecs := newReduceFixture(4*3, c100Dim, 31).vecs
	for w, v := range vecs {
		v.Scale(math.Ldexp(1, w%5-2))
		v[0] = math.Copysign(0, -1)
	}
	table := func(t *testing.T) {
		for _, procs := range []int{2, 3, 4} {
			for _, perRank := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%dx%d", procs, perRank), func(t *testing.T) {
					withEndpoints(t, procs, func(t *testing.T, eps []Endpoint) {
						relayTable(t, eps, perRank, dims, vecs)
					})
				})
			}
		}
	}
	t.Run("default-kernels", table)
	restore := tensor.ForcePortable()
	if restore == nil {
		return // the pure-Go kernels are the only ones here: already covered
	}
	defer restore()
	t.Run("pure-go-kernels", table)
}

// relayTable runs every id case and dim of TestRelayMatchesGatherBitForBit
// on one set of endpoints, worker w contributing a prefix of vecs[w].
func relayTable(t *testing.T, eps []Endpoint, perRank int, dims []int, vecs []tensor.Vector) {
	procs := len(eps)
	ms := meshes(t, eps, procs*perRank)
	for _, m := range ms {
		// A rank that refuses a window fails its round; the bound turns its
		// peers' wait for it into an error instead of a hung test.
		m.SetOpTimeout(10 * time.Second)
	}
	names, cases := relayIDCases(procs, perRank)
	for _, dim := range dims {
		view := func(w int) tensor.Vector { return vecs[w][:dim] }
		for k, ids := range cases {
			vs := make([]tensor.Vector, len(ids))
			for i, id := range ids {
				vs[i] = view(id)
			}
			want := tensor.NewVector(dim)
			tensor.Average(want, vs)
			acct := NewLoopback(procs * perRank)
			acct.AccountPush(len(ids), dim)
			acct.AccountPull(procs*perRank, dim)
			wantLedger := *acct.Stats()

			relayed, relayLedger := make([]tensor.Vector, procs), make([]Stats, procs)
			parallelRanks(t, eps, func(ep Endpoint) error {
				r := ep.Rank()
				m := ms[r]
				before := *m.Stats()
				relayed[r] = tensor.NewVector(dim)
				if err := m.ReduceMeanCodec(relayed[r], nil, ids, view); err != nil {
					return fmt.Errorf("relay: %w", err)
				}
				relayLedger[r] = ledgerDelta(before, *m.Stats())
				return nil
			})
			for r := 0; r < procs; r++ {
				if i := firstBitDiff(relayed[r], want); i >= 0 {
					t.Fatalf("dim %d, ids %s %v, rank %d: element %d = %v, tensor.Average %v",
						dim, names[k], ids, r, i, relayed[r][i], want[i])
				}
				if relayLedger[r] != wantLedger {
					t.Fatalf("dim %d, ids %s, rank %d: relay ledger %+v, AccountPush/AccountPull %+v", dim, names[k], r, relayLedger[r], wantLedger)
				}
			}
		}
	}
	if len(ms[0].recvBufs) != 0 {
		t.Fatal("a static mesh staged a contribution: a round gathered")
	}
}

// firstBitDiff returns the first index at which two equally long vectors
// differ in any bit, -1 where there is none.
func firstBitDiff(a, b tensor.Vector) int {
	if ab, ok := tensor.WireView(a); ok {
		if bb, _ := tensor.WireView(b); bytes.Equal(ab, bb) {
			return -1
		}
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// ledgerDelta is what one round added to a ledger.
func ledgerDelta(before, after Stats) Stats {
	d := after
	d.Pushes -= before.Pushes
	d.Pulls -= before.Pulls
	d.Bytes.Recv -= before.Bytes.Recv
	d.Bytes.Sent -= before.Bytes.Sent
	d.FlagRounds -= before.FlagRounds
	d.FlagBytes -= before.FlagBytes
	return d
}

// TestRelayRefusesMisorderedWindows: a relay receiver fed a mean where a
// partial sum is due — the interleaving a rank owning two runs must not get
// wrong — or a partial sum where a mean is due gets a typed *PeerError
// naming the peer and phase, never a silent mis-sum. Rank 1 is a scripted
// peer: it takes rank 0's first partial window and answers with the wrong
// stream.
func TestRelayRefusesMisorderedWindows(t *testing.T) {
	const perRank, dim = 2, 2*ChunkElems + 5
	fx := newReduceFixture(2*perRank, dim, 43)
	for _, tc := range []struct {
		name string
		ids  []int // runs rank 0, rank 1, …; the first partial goes to rank 1
		// reply is the frame rank 1 answers with: window 0 of a stream
		// tagged tag.
		tag    int32
		wantOp string
		wantIn string
	}{
		// Runs r0{0} r1{2} r0{1} r1{3}: rank 0 next folds id 1 from rank 1's
		// partial; a mean window arrives instead.
		{"mean-for-partial", []int{0, 2, 1, 3}, -1, "reduce relay recv", "tagged -1, want 1"},
		// Runs r0{0,1} r1{2,3}: rank 0 next takes the mean; a partial arrives.
		{"partial-for-mean", []int{0, 1, 2, 3}, 2, "reduce pull", "tagged 2, want -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps := NewLoopbackEndpoints(2)
			defer closeAll(eps)
			m, err := NewMesh(eps[0], 2*perRank)
			if err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() { errc <- m.ReduceMean(tensor.NewVector(dim), tc.ids, fx.view) }()
			f, err := eps[1].Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			if f.Worker != 2 {
				t.Fatalf("rank 0's partial is tagged %d, want 2, the id rank 1 folds first", f.Worker)
			}
			reply := Frame{Type: MsgTensorChunk, Worker: tc.tag, Payload: f.Payload}
			if err := eps[1].Send(0, &reply); err != nil {
				t.Fatal(err)
			}
			err = <-errc
			var pe *PeerError
			if !errors.As(err, &pe) {
				t.Fatalf("misordered window accepted or untyped: %v", err)
			}
			if pe.Rank != 1 || pe.Op != tc.wantOp || !strings.Contains(err.Error(), tc.wantIn) {
				t.Fatalf("got %v, want a %q *PeerError from rank 1 saying %q", err, tc.wantOp, tc.wantIn)
			}
		})
	}
}
