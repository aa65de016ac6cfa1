package train

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"selsync/internal/comm"
	"selsync/internal/comm/commtest"
)

// elasticCfg is the degraded-mode workload: 4 workers over 4 ranks, rank 2
// leaves at the boundary before step 10 and rejoins before step 24.
func elasticCfg(seed uint64, plan string) Config {
	cfg := faultCfg(seed)
	cfg.Membership = plan
	return cfg
}

const churnPlan = "leave=2@10;join=2@24;procs=4"

// TestDegradedModeDigestEquality is the elastic-membership acceptance bar:
// with a fixed membership plan, a degraded run — rank 2 departs mid-flight
// and hot-rejoins via the rank-0 state transfer — must produce a
// Result.Digest() bit-identical across the loopback fabric, in-process
// channel ranks, real TCP ranks, and repeats.
func TestDegradedModeDigestEquality(t *testing.T) {
	const procs = 4
	mkCfg := func() Config { return elasticCfg(131, churnPlan) }

	want, err := NewJob(mkCfg(), faultPolicy()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	again, err := NewJob(mkCfg(), faultPolicy()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want.Digest() != again.Digest() {
		t.Fatalf("loopback degraded run is not repeatable: %s vs %s", want.Digest(), again.Digest())
	}

	for _, transport := range []struct {
		name     string
		loopback bool
	}{{"chan", true}, {"tcp", false}} {
		t.Run(transport.name, func(t *testing.T) {
			var views [][]ViewChangeEvent
			views = make([][]ViewChangeEvent, procs)
			results, _ := commtest.RunRanksOpts(t, procs, 4, commtest.Options{
				Loopback: transport.loopback,
			}, func(rank int, fabric comm.Fabric) *Result {
				cfg := mkCfg()
				cfg.Fabric = fabric
				opts := []Option{WithObserver(ObserverFunc(func(e Event) {
					if ve, ok := e.(ViewChangeEvent); ok {
						views[rank] = append(views[rank], ve)
					}
				}))}
				if rank == 2 {
					opts = append(opts, WithRejoin())
				}
				res, err := NewJob(cfg, faultPolicy(), opts...).Run(context.Background())
				if err != nil {
					panic(err)
				}
				return res
			})
			for rank, got := range results {
				if got.Digest() != want.Digest() {
					t.Fatalf("rank %d degraded digest %s != loopback degraded digest %s",
						rank, got.Digest(), want.Digest())
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rank %d Result diverged beyond the digest:\n  got: %+v\n want: %+v", rank, got, want)
				}
			}
			// Survivors observe both transitions; the departed rank sees
			// neither (it was out of the loop at both boundaries).
			for _, rank := range []int{0, 1, 3} {
				vs := views[rank]
				if len(vs) != 2 || vs[0].Join || !vs[1].Join {
					t.Fatalf("rank %d view changes = %+v, want [leave join]", rank, vs)
				}
				if vs[0].Step != 10 || vs[0].Rank != 2 || vs[1].Step != 24 || vs[1].Rank != 2 {
					t.Fatalf("rank %d view-change steps/ranks wrong: %+v", rank, vs)
				}
				if vs[0].Live != 3 || vs[1].Live != 4 {
					t.Fatalf("rank %d live counts wrong: %+v", rank, vs)
				}
			}
		})
	}
}

// TestDegradedModeDigestEqualityLocalSGD is the churn plan under LocalSGD,
// whose every step applies each worker's update block by block inside its
// backward pass: the replica rebuilt for the departed rank's worker — adopted
// by rank 0 on a mesh, reset in place on loopback — must report its blocks
// like every other, and the digest must not depend on the fabric.
func TestDegradedModeDigestEqualityLocalSGD(t *testing.T) {
	const procs, probeStep = 4, 15 // rank 2 is away for steps 10–23
	mkCfg := func() Config { return elasticCfg(133, churnPlan) }
	// blockReporters lists, at probeStep, the hosted workers whose backward
	// pass reported every block through the hook.
	blockReporters := func(job **Job, out *[]int) Option {
		return WithObserver(ObserverFunc(func(e Event) {
			if se, ok := e.(StepEvent); ok && se.Step == probeStep {
				r := (*job).r
				for _, w := range r.cl.Workers {
					if r.blocks[w.ID].final == 0 {
						*out = append(*out, w.ID)
					}
				}
			}
		}))
	}

	var lbJob *Job
	var lbHooked []int
	lbJob = NewJob(mkCfg(), LocalSGDPolicy{}, blockReporters(&lbJob, &lbHooked))
	want, err := lbJob.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lbHooked, []int{0, 1, 2, 3}) {
		t.Fatalf("loopback: workers reporting blocks at step %d = %v, want all four (worker 2 rebuilt)", probeStep, lbHooked)
	}

	hooked := make([][]int, procs)
	results, _ := commtest.RunRanksOpts(t, procs, 4, commtest.Options{}, func(rank int, fabric comm.Fabric) *Result {
		cfg := mkCfg()
		cfg.Fabric = fabric
		var job *Job
		opts := []Option{blockReporters(&job, &hooked[rank])}
		if rank == 2 {
			opts = append(opts, WithRejoin())
		}
		job = NewJob(cfg, LocalSGDPolicy{}, opts...)
		res, err := job.Run(context.Background())
		if err != nil {
			panic(err)
		}
		return res
	})
	for rank, got := range results {
		if got.Digest() != want.Digest() {
			t.Fatalf("rank %d LocalSGD degraded digest %s != loopback %s", rank, got.Digest(), want.Digest())
		}
	}
	if !reflect.DeepEqual(hooked[0], []int{0, 2}) {
		t.Fatalf("rank 0: workers reporting blocks at step %d = %v, want [0 2] (worker 2 adopted)", probeStep, hooked[0])
	}
}

// TestPermanentDepartureContinuesOverSurvivors: a plan that never readmits
// the departed rank. The departing rank exits cleanly with ErrRankLeft and
// a partial Result; the survivors run to completion and stay bit-identical
// to the loopback run under the same plan.
func TestPermanentDepartureContinuesOverSurvivors(t *testing.T) {
	const procs = 4
	plan := "leave=2@10;procs=4"
	mkCfg := func() Config { return elasticCfg(132, plan) }

	want, err := NewJob(mkCfg(), faultPolicy()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	type out struct {
		res *Result
		err error
	}
	results, _ := commtest.RunRanksOpts(t, procs, 4, commtest.Options{}, func(rank int, fabric comm.Fabric) out {
		cfg := mkCfg()
		cfg.Fabric = fabric
		res, err := NewJob(cfg, faultPolicy()).Run(context.Background())
		return out{res, err}
	})
	for rank, got := range results {
		if rank == 2 {
			if !errors.Is(got.err, ErrRankLeft) {
				t.Fatalf("departed rank error = %v, want ErrRankLeft", got.err)
			}
			if got.res == nil {
				t.Fatal("departed rank returned no partial Result")
			}
			if got.res.Steps == 0 {
				t.Fatal("departed rank made no progress before leaving")
			}
			continue
		}
		if got.err != nil {
			t.Fatalf("survivor rank %d failed: %v", rank, got.err)
		}
		if got.res.Digest() != want.Digest() {
			t.Fatalf("survivor rank %d digest %s != loopback digest %s", rank, got.res.Digest(), want.Digest())
		}
	}
}

// TestQuorumLossFailsWithTypedError: when planned departures push the live
// count below the quorum, the boundary fails with comm.ErrQuorumLost and
// the run takes the PR 6 emergency-checkpoint path — a partial Result, a
// FaultEvent, and a Dirty checkpoint that restore refuses.
func TestQuorumLossFailsWithTypedError(t *testing.T) {
	cfg := elasticCfg(133, "leave=1@6;leave=2@8;procs=4;quorum=3")
	var faults []FaultEvent
	job := NewJob(cfg, faultPolicy(), WithObserver(ObserverFunc(func(e Event) {
		if fe, ok := e.(FaultEvent); ok {
			faults = append(faults, fe)
		}
	})))
	res, err := job.Run(context.Background())
	if !errors.Is(err, comm.ErrQuorumLost) {
		t.Fatalf("error = %v, want comm.ErrQuorumLost", err)
	}
	if res == nil || res.Steps == 0 {
		t.Fatalf("quorum loss must still yield a partial Result, got %+v", res)
	}
	if len(faults) != 1 || !errors.Is(faults[0].Err, comm.ErrQuorumLost) {
		t.Fatalf("FaultEvents = %+v, want exactly one wrapping ErrQuorumLost", faults)
	}
	if faults[0].Step != 8 {
		t.Fatalf("quorum loss fired at step %d, want 8", faults[0].Step)
	}
	emerg := job.EmergencyCheckpoint()
	if emerg == nil || !emerg.Dirty {
		t.Fatalf("quorum loss must leave a Dirty emergency checkpoint, got %+v", emerg)
	}
	if _, err := NewJob(elasticCfg(133, "leave=1@6;leave=2@8;procs=4;quorum=3"), faultPolicy(),
		WithResume(emerg)).Run(context.Background()); err == nil {
		t.Fatal("resuming the Dirty quorum-loss checkpoint must be refused")
	}
}

// TestElasticResumeFromAutoCheckpoint: a checkpoint captured while the
// membership view is degraded must resume bit-identically — the resume
// replays the plan's structural transitions before restoring state.
func TestElasticResumeFromAutoCheckpoint(t *testing.T) {
	mkCfg := func() Config { return elasticCfg(134, churnPlan) }
	want, err := NewJob(mkCfg(), faultPolicy()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Capture at step 16: inside the degraded window (leave@10, join@24).
	sink := map[int]*Checkpoint{}
	if _, err := NewJob(mkCfg(), faultPolicy(), WithAutoCheckpoint(16, func(step int, ck *Checkpoint) error {
		if !ck.Dirty {
			sink[step] = ck
		}
		return nil
	})).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck := sink[16]
	if ck == nil {
		t.Fatalf("no step-16 auto-checkpoint captured (have %v)", sink)
	}
	if len(ck.SamplerCursors) != 4 {
		t.Fatalf("elastic checkpoint carries %d sampler cursors, want 4", len(ck.SamplerCursors))
	}
	got, err := NewJob(mkCfg(), faultPolicy(), WithResume(ck)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("resumed degraded digest %s != uninterrupted degraded digest %s", got.Digest(), want.Digest())
	}
}

// TestParseMembershipPlan pins the plan grammar: strict unknown-key
// rejection naming the offending token, structural validation, and event
// ordering.
func TestParseMembershipPlan(t *testing.T) {
	p, err := ParseMembershipPlan(" join=2@24 ; leave=2@10 ; quorum=3 ; procs=4 ")
	if err != nil {
		t.Fatal(err)
	}
	if p.Quorum != 3 || p.Procs != 4 {
		t.Fatalf("quorum/procs = %d/%d, want 3/4", p.Quorum, p.Procs)
	}
	wantEvents := []MemberEvent{{Step: 10, Rank: 2}, {Step: 24, Rank: 2, Join: true}}
	if !reflect.DeepEqual(p.Events, wantEvents) {
		t.Fatalf("events = %+v, want %+v (sorted by step)", p.Events, wantEvents)
	}
	if p, err := ParseMembershipPlan(""); p != nil || err != nil {
		t.Fatalf("empty plan = %v, %v; want nil, nil", p, err)
	}

	bad := []struct {
		in, frag string
	}{
		{"leav=2@10", `unknown membership key "leav"`},
		{"leave=2@10;jitter=5", `"jitter"`},
		{"leave=2@10;jitter=5", `"jitter=5"`}, // names the whole token too
		{"leave=2", "rank@step"},
		{"leave=x@10", `bad rank "x"`},
		{"leave=2@y", `bad step "y"`},
		{"leave=0@10", "rank 0"},
		{"leave=-1@10", "non-negative"},
		{"join=2@24;procs=4", "without a preceding leave"},
		{"leave=2@10;leave=2@20", "twice"},
		{"quorum=0", "positive"},
		{"procs=1", "> 1"},
		{"leave", "key=value"},
	}
	for _, tc := range bad {
		_, err := ParseMembershipPlan(tc.in)
		if err == nil {
			t.Fatalf("ParseMembershipPlan(%q) accepted a bad plan", tc.in)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("ParseMembershipPlan(%q) error %q does not name %q", tc.in, err, tc.frag)
		}
	}
}

// TestMembershipConfigValidation: membership mistakes surface as Validate
// errors, not mid-run panics.
func TestMembershipConfigValidation(t *testing.T) {
	cfg := smallConfig(7)
	cfg.Membership = "leave=2@10;bogus=1"
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("Validate error = %v, want one naming the bogus key", err)
	}
	cfg = smallConfig(7)
	cfg.Quorum = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative quorum must be rejected")
	}
	// A loopback plan without procs= cannot mirror the rank layout.
	cfg = smallConfig(7)
	cfg.Membership = "leave=2@10"
	if _, err := NewJob(cfg, faultPolicy()).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "procs=P") {
		t.Fatalf("loopback plan without procs ran: %v", err)
	}
}
