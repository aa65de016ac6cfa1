package train

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/comm/commtest"
)

// codecCfg is smallConfig shortened for codec runs, with the payload codec
// applied.
func codecCfg(seed uint64, codec string) func() Config {
	return func() Config {
		cfg := smallConfig(seed)
		cfg.MaxSteps = 24
		cfg.EvalEvery = 8
		cfg.Codec = codec
		return cfg
	}
}

// runBSP is the func(Config) *Result form of a BSP run these tests hand to
// runTCPRanks and their policy tables.
func runBSP(cfg Config) *Result { return mustRun(cfg, BSPPolicy{}) }

// TestCodecNoneBitIdenticalToDense: "-codec none" must never change a run,
// on the gradient path and on the parameter path. There is one reduce
// pipeline: under the identity codec it averages the values themselves
// whether or not the ranks negotiated a codec first, so the Result digests
// match bit for bit for every policy.
func TestCodecNoneBitIdenticalToDense(t *testing.T) {
	for _, pol := range []struct {
		name string
		run  func(Config) *Result
	}{
		{"bsp", runBSP},
		{"selsync-paramagg", func(cfg Config) *Result {
			return mustRun(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})
		}},
		{"selsync-gradagg", func(cfg Config) *Result {
			return mustRun(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.GradAgg})
		}},
		{"fedavg", func(cfg Config) *Result {
			return mustRun(cfg, &FedAvgPolicy{C: 0.5, E: 0.25})
		}},
	} {
		dense := pol.run(codecCfg(31, "")())
		if dense.SyncSteps == 0 {
			t.Fatalf("%s: the dense run never synchronized — nothing to compare", pol.name)
		}
		t.Run(pol.name+"/explicit-none", func(t *testing.T) {
			got := pol.run(codecCfg(31, "none")())
			if !reflect.DeepEqual(got, dense) {
				t.Fatalf("Result diverged from dense run:\n got: %+v\nwant: %+v", got, dense)
			}
			if got.Digest() != dense.Digest() {
				t.Fatal("digests disagree despite DeepEqual — digest bug")
			}
		})
	}
}

// TestLossyCodecDeterministicAcrossBackends: every lossy codec must be a
// deterministic function of (seed, codec) — repeated loopback runs and a
// real 2-process TCP mesh all produce the same Result digest. The wire
// carries exact float64 bits for the decoded values, so the reduction is
// backend-invariant.
func TestLossyCodecDeterministicAcrossBackends(t *testing.T) {
	for _, codec := range []string{"topk:0.02", "q8", "q16", "partial:0.5"} {
		t.Run(codec, func(t *testing.T) {
			mkCfg := codecCfg(32, codec)
			want := mustRun(mkCfg(), BSPPolicy{})
			if again := mustRun(mkCfg(), BSPPolicy{}); again.Digest() != want.Digest() {
				t.Fatalf("repeated loopback run diverged: %s vs %s", again.Digest(), want.Digest())
			}
			results, _ := runTCPRanks(t, 2, 4, mkCfg, runBSP)
			for r, got := range results {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rank %d Result diverged from loopback:\n tcp: %+v\n  lb: %+v", r, got, want)
				}
			}
		})
	}
}

// TestLossyCodecBoundedDrift: error feedback keeps every lossy codec's
// training trajectory near the uncompressed one — the run must still
// converge, with the best metric within a few points of dense — while
// moving at least 4x fewer bytes at the top-k 1% setting. The gradient
// codecs run under BSP (one gradient collective per step); partial
// sharing runs on the parameter path it is designed for (an always-sync
// SelSync run, where unsent coordinates hold the previous global value
// instead of dropping gradient mass).
func TestLossyCodecBoundedDrift(t *testing.T) {
	// Longer than the identity tests: partial sharing needs enough rounds
	// for its coordinate rotation to cover the model a few times over.
	mkCfg := func(codec string) Config {
		cfg := codecCfg(34, codec)()
		cfg.MaxSteps = 48
		cfg.EvalEvery = 12
		return cfg
	}
	paramAgg := func(cfg Config) *Result {
		return mustRun(cfg, SelSyncPolicy{Delta: 1e9, Mode: cluster.ParamAgg})
	}
	run := func(codec string, runner func(Config) *Result) (*Result, int64) {
		lb := comm.NewLoopback(4)
		cfg := mkCfg(codec)
		cfg.Fabric = lb
		res := runner(cfg)
		return res, lb.Stats().Bytes.Recv + lb.Stats().Bytes.Sent
	}
	denseGrad, denseGradBytes := run("", runBSP)
	denseParam, denseParamBytes := run("", paramAgg)

	for _, tc := range []struct {
		codec        string
		runner       func(Config) *Result
		dense        *Result
		denseBytes   int64
		minReduction float64
	}{
		{"topk:0.01", runBSP, denseGrad, denseGradBytes, 4},
		{"q8", runBSP, denseGrad, denseGradBytes, 4},
		{"q16", runBSP, denseGrad, denseGradBytes, 2},
		{"partial:0.25", paramAgg, denseParam, denseParamBytes, 2},
	} {
		t.Run(tc.codec, func(t *testing.T) {
			res, bytes := run(tc.codec, tc.runner)
			if drift := math.Abs(res.BestMetric - tc.dense.BestMetric); drift > 6 {
				t.Fatalf("best metric drifted %.2fpp from dense (%.2f vs %.2f)", drift, res.BestMetric, tc.dense.BestMetric)
			}
			if math.IsNaN(res.FinalMetric) || res.BestMetric < 50 {
				t.Fatalf("compressed run failed to converge: %+v", res)
			}
			if reduction := float64(tc.denseBytes) / float64(bytes); reduction < tc.minReduction {
				t.Fatalf("bytes-on-wire reduction %.2fx < %.1fx (dense %d B, %s %d B)",
					reduction, tc.minReduction, tc.denseBytes, tc.codec, bytes)
			}
		})
	}
}

// TestCodecCheckpointResumeBitIdentical: the error-feedback accumulators
// are training state; a compressed run interrupted at a step boundary and
// resumed from its checkpoint must reproduce the uninterrupted digest.
func TestCodecCheckpointResumeBitIdentical(t *testing.T) {
	for _, tc := range []struct{ name, codec string }{
		{"topk", "topk:0.02"},
		{"q8", "q8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// interruptAt must sit on the eval cadence: the short run's
			// end-of-run evaluation otherwise adds a History point the
			// uninterrupted run never sees.
			resumeCase(t, codecCfg(35, tc.codec), func() SyncPolicy { return BSPPolicy{} }, 16)
		})
	}
}

// TestCodecResumeRejectsMissingState: a config that expects a lossy codec
// must refuse a checkpoint captured without one — silently starting the
// residuals from zero would break bit-identical resume.
func TestCodecResumeRejectsMissingState(t *testing.T) {
	plain := NewJob(codecCfg(36, "")(), BSPPolicy{})
	if _, err := plain.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck, err := plain.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg := codecCfg(36, "q8")()
	cfg.MaxSteps = 32
	if _, err := NewJob(cfg, BSPPolicy{}, WithResume(ck)).Run(context.Background()); err == nil {
		t.Fatal("resume with missing codec state must fail")
	} else if !strings.Contains(err.Error(), "codec") {
		t.Fatalf("error should name the codec mismatch, got: %v", err)
	}
}

// TestCodecConfigValidation: malformed codec specs are rejected by
// Config.Validate with the offending key and token named, and codecs are
// mutually exclusive with elastic membership.
func TestCodecConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		codec string
		want  []string
	}{
		{"topk", []string{"topk"}},
		{"topk:zero", []string{"zero", "topk"}},
		{"topk:1.5", []string{"1.5"}},
		{"q12", []string{"q12"}},
		{"partial:0", []string{"partial"}},
		{"gzip:0.5", []string{"gzip"}},
	} {
		cfg := codecCfg(37, tc.codec)()
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("Validate accepted malformed codec %q", tc.codec)
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Fatalf("error for %q should name %q, got: %v", tc.codec, frag, err)
			}
		}
	}

	memb := codecCfg(38, "q8")()
	memb.Membership = "leave=1@8;join=1@16"
	if err := memb.Validate(); err == nil {
		t.Fatal("Validate accepted codec + elastic membership")
	}
}

// TestQuorumElasticRejectsCodecAndOverlap: Config.Quorum makes a multi-rank
// run elastic without a membership plan, after the codec was negotiated.
// Every rank must refuse at construction instead of training into an
// adoption the error-feedback residuals cannot follow. (Its overlap rows
// went with comm/compute overlap; the name keeps the test's id.)
func TestQuorumElasticRejectsCodecAndOverlap(t *testing.T) {
	t.Run("codec", func(t *testing.T) {
		errs, _ := commtest.RunRanksOpts(t, 2, 4, commtest.Options{Loopback: true},
			func(rank int, fabric comm.Fabric) error {
				cfg := codecCfg(41, "q8")()
				cfg.Quorum = 2
				cfg.Fabric = fabric
				_, err := NewJob(cfg, BSPPolicy{}).Run(context.Background())
				return err
			})
		for r, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "static membership") {
				t.Fatalf("rank %d: error = %v, want the static-membership refusal", r, err)
			}
		}
	})
}

// TestSSPRejectsCodecAndOverlap covers every refusal of an event-loop policy
// — the codec path (the overlap row went with comm/compute overlap; the name
// keeps the test's id), and the four job features that live at the step
// loop's boundaries. SSP replaces that loop, so each
// must fail loudly before any training instead of being silently ignored
// (no auto-checkpoint ever taken, a late join training from undrawn
// weights), with an error that names the policy.
func TestSSPRejectsCodecAndOverlap(t *testing.T) {
	sink := func(int, *Checkpoint) error { return nil }
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
		opts []Option
		want string
	}{
		{"resume", nil, []Option{WithResume(&Checkpoint{})}, "resume"},
		{"membership", func(c *Config) { c.Membership = churnPlan }, nil, "elastic membership"},
		{"codec", func(c *Config) { c.Codec = "q8" }, nil, "codec"},
		{"auto-checkpoint", nil, []Option{WithAutoCheckpoint(5, sink)}, "auto-checkpoint"},
		{"rejoin", nil, []Option{WithRejoin()}, "rejoin"},
		{"late-join", nil, []Option{WithLateJoin()}, "rejoin"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := codecCfg(39, "")()
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			var trained bool
			opts := append(tc.opts, WithObserver(ObserverFunc(func(Event) { trained = true })))
			res, err := NewJob(cfg, &SSPPolicy{Staleness: 4}, opts...).Run(context.Background())
			if err == nil || res != nil || trained {
				t.Fatalf("SSP must refuse before training: res=%v err=%v trained=%v", res, err, trained)
			}
			if msg := err.Error(); !strings.Contains(msg, "SSP(s=4)") || !strings.Contains(msg, tc.want) {
				t.Fatalf("error should name the policy and %q, got: %v", tc.want, err)
			}
		})
	}
}

// TestSelSyncWithCodec: codecs apply to every step-loop policy, not just
// BSP — a SelSync run (mixed param-aggregation sync and local phases)
// under q8 is deterministic across repeats and both backends.
func TestSelSyncWithCodec(t *testing.T) {
	mkCfg := codecCfg(40, "q8")
	run := func(cfg Config) *Result {
		return mustRun(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})
	}
	want := run(mkCfg())
	if want.SyncSteps == 0 || want.LocalSteps == 0 {
		t.Fatalf("test needs a mixed local/sync regime, got %+v", want)
	}
	if again := run(mkCfg()); again.Digest() != want.Digest() {
		t.Fatal("repeated SelSync codec run diverged")
	}
	results, _ := runTCPRanks(t, 2, 4, mkCfg, run)
	for r, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d Result diverged from loopback:\n tcp: %+v\n  lb: %+v", r, got, want)
		}
	}
}

// TestCodecCheckpointResumeTCP: every rank of a compressed run carries its
// replica of the downlink residual in its checkpoint. A 2-rank TCP
// topk:0.02 run interrupted on the eval cadence, checkpointed per rank and
// resumed by a fresh gang — fresh meshes, so nothing of the first run's
// error feedback survives outside the checkpoints — reproduces the
// uninterrupted loopback Result on every rank.
func TestCodecCheckpointResumeTCP(t *testing.T) {
	mkCfg := codecCfg(35, "topk:0.02")
	want := mustRun(mkCfg(), BSPPolicy{})
	cks, _ := commtest.RunRanks(t, 2, 4, func(rank int, fabric comm.Fabric) *Checkpoint {
		cfg := mkCfg()
		cfg.MaxSteps, cfg.Fabric = 16, fabric
		job := NewJob(cfg, BSPPolicy{})
		if _, err := job.Run(context.Background()); err != nil {
			panic(err)
		}
		ck, err := job.Checkpoint(context.Background())
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			panic(err)
		}
		if ck, err = DecodeCheckpoint(&buf); err != nil {
			panic(err)
		}
		return ck
	})
	for rank, ck := range cks {
		if ck.Codec == nil || len(ck.Codec.Down) != ck.Dim {
			t.Fatalf("rank %d checkpoint carries no downlink replica: %+v", rank, ck.Codec)
		}
	}
	results, _ := commtest.RunRanks(t, 2, 4, func(rank int, fabric comm.Fabric) *Result {
		cfg := mkCfg()
		cfg.Fabric = fabric
		res, err := NewJob(cfg, BSPPolicy{}, WithResume(cks[rank])).Run(context.Background())
		if err != nil {
			panic(err)
		}
		return res
	})
	for rank, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d resumed Result diverged from loopback:\n tcp: %+v\n  lb: %+v", rank, got, want)
		}
	}
}

// TestCodecResumeRefusesMissingDownlink: a lossy checkpoint past round 0
// whose codec state lacks the downlink residual — what a rank other than 0
// wrote while only rank 0 kept one — is refused with the typed error, naming
// the codec. Resuming from a zeroed residual would silently diverge from
// the ranks that kept theirs.
func TestCodecResumeRefusesMissingDownlink(t *testing.T) {
	mkCfg := codecCfg(36, "topk:0.02")
	short := mkCfg()
	short.MaxSteps = 8
	job := NewJob(short, BSPPolicy{})
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck, err := job.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ck.Codec == nil || ck.Codec.Round == 0 || ck.Codec.Down == nil {
		t.Fatalf("the short run left no lossy rounds to resume from: %+v", ck.Codec)
	}
	ck.Codec.Down = nil
	_, err = NewJob(mkCfg(), BSPPolicy{}, WithResume(ck)).Run(context.Background())
	if !errors.Is(err, comm.ErrSnapshotNoDownlink) || !strings.Contains(err.Error(), `"topk:0.02"`) {
		t.Fatalf("resume without the downlink residual: %v, want comm.ErrSnapshotNoDownlink naming the codec", err)
	}
}
