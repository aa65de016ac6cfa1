package train

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"selsync/internal/cluster"
)

// TestJobMatchesRun pins the tentpole invariant: the Job path with no
// observer produces a Result bit-identical to the legacy Run shim (which
// itself is pinned bit-identically to the pre-refactor loops by the golden
// digests).
func TestJobMatchesRun(t *testing.T) {
	cfg := smallConfig(61)
	cfg.MaxSteps, cfg.EvalEvery = 40, 10
	want := mustRun(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})

	job := NewJob(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})
	got, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Job Result diverged from Run:\n job: %+v\n run: %+v", got, want)
	}
	if job.Result() != got {
		t.Fatal("Job.Result must return the run's Result")
	}
}

// TestJobSingleShot: a second Run errors instead of corrupting state.
func TestJobSingleShot(t *testing.T) {
	cfg := smallConfig(62)
	cfg.MaxSteps, cfg.EvalEvery = 8, 4
	job := NewJob(cfg, BSPPolicy{})
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err == nil {
		t.Fatal("second Run must error")
	}
}

// TestJobValidationErrors: configuration mistakes surface as errors from
// Job.Run, not panics.
func TestJobValidationErrors(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"nil-datasets":  func(c *Config) { c.Train, c.Test = nil, nil },
		"neg-workers":   func(c *Config) { c.Workers = -1 },
		"neg-batch":     func(c *Config) { c.Batch = -4 },
		"neg-steps":     func(c *Config) { c.MaxSteps = -10 },
		"neg-patience":  func(c *Config) { c.Patience = -1 },
		"bad-injection": func(c *Config) { c.NonIID = &NonIID{LabelsPerWorker: 0} },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(63)
			mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate must reject the config")
			}
			if _, err := NewJob(cfg, BSPPolicy{}).Run(context.Background()); err == nil {
				t.Fatal("Job.Run must surface the config error")
			}
		})
	}
}

// TestJobPolicyValidationErrors: policy Init panics become Job errors.
func TestJobPolicyValidationErrors(t *testing.T) {
	cfg := smallConfig(64)
	cfg.MaxSteps, cfg.EvalEvery = 8, 4
	_, err := NewJob(cfg, &FedAvgPolicy{C: 0, E: 0.5}).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "FedAvg C") {
		t.Fatalf("want FedAvg validation error, got %v", err)
	}
	// The cluster's worker pool must have been released: a follow-up run
	// on the same config still works.
	if _, err := NewJob(cfg, BSPPolicy{}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJobCancellation: cancelling the context from an observer at a known
// step stops the run at the next boundary with a partial-but-valid Result.
func TestJobCancellation(t *testing.T) {
	cfg := smallConfig(65)
	cfg.MaxSteps, cfg.EvalEvery = 40, 10

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAfter = 24 // cancel once step 24 completed → 25 steps ran
	job := NewJob(cfg, BSPPolicy{}, WithObserver(ObserverFunc(func(e Event) {
		if se, ok := e.(StepEvent); ok && se.Step == stopAfter {
			cancel()
		}
	})))
	res, err := job.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled run must still return the partial Result")
	}
	if res.Steps != stopAfter+1 {
		t.Fatalf("partial result should hold %d steps, got %d", stopAfter+1, res.Steps)
	}
	if res.SyncSteps != res.Steps {
		t.Fatalf("BSP partial counters inconsistent: %+v", res)
	}
	// Evals at steps 10 and 20 happened; 30/40 did not.
	if len(res.History) != 2 || res.History[1].Step != 20 {
		t.Fatalf("partial history inconsistent: %+v", res.History)
	}
}

// TestJobDeadline: a context deadline stops the run too (non-deterministic
// step, but the Result must stay internally consistent).
func TestJobDeadline(t *testing.T) {
	cfg := smallConfig(66)
	cfg.MaxSteps, cfg.EvalEvery = 1<<20, 1<<20 // effectively unbounded
	// Long enough for construction and a first step on a box whose other
	// tenants take a core for a few dozen milliseconds.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := NewJob(cfg, LocalSGDPolicy{}).Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if res.Steps == 0 || res.Steps != res.LocalSteps {
		t.Fatalf("partial local-SGD counters inconsistent: %+v", res)
	}
}

// TestJobEventStream: the observer sees the full taxonomy in a hybrid run —
// step, sync, eval and phase-switch events, mutually consistent.
func TestJobEventStream(t *testing.T) {
	cfg := smallConfig(67)
	cfg.MaxSteps, cfg.EvalEvery = 20, 10
	var steps, syncs, evals, switches int
	var lastStep int
	obs := ObserverFunc(func(e Event) {
		switch ev := e.(type) {
		case StepEvent:
			if ev.Step != steps {
				t.Fatalf("step events out of order: got %d, want %d", ev.Step, steps)
			}
			steps++
			lastStep = ev.Step
		case SyncEvent:
			if ev.Step != steps { // sync precedes its step event
				t.Fatalf("sync event for step %d arrived around step %d", ev.Step, steps)
			}
			if ev.CostSeconds <= 0 || ev.Participants != cfg.Workers {
				t.Fatalf("implausible sync event: %+v", ev)
			}
			syncs++
		case EvalEvent:
			if ev.Step != lastStep+1 {
				t.Fatalf("eval event at %d, expected after step %d", ev.Step, lastStep)
			}
			evals++
		case PhaseSwitchEvent:
			if ev.Step != 10 || ev.From != "BSP" || ev.To != "LocalSGD" {
				t.Fatalf("unexpected phase switch: %+v", ev)
			}
			switches++
		}
	})
	res, err := NewJob(cfg, &SwitchPolicy{From: BSPPolicy{}, To: LocalSGDPolicy{}, AtStep: 10},
		WithObserver(obs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if steps != 20 || syncs != 10 || evals != 2 || switches != 1 {
		t.Fatalf("event counts: steps=%d syncs=%d evals=%d switches=%d", steps, syncs, evals, switches)
	}
	if res.SyncSteps != syncs {
		t.Fatalf("sync events (%d) disagree with Result.SyncSteps (%d)", syncs, res.SyncSteps)
	}
}

// TestObserverDoesNotPerturbResult: a run with an observer attached is
// bit-identical to one without (events are pure observation).
func TestObserverDoesNotPerturbResult(t *testing.T) {
	mk := func() Config {
		cfg := smallConfig(68)
		cfg.MaxSteps, cfg.EvalEvery = 30, 10
		cfg.TrackDeltas = true
		return cfg
	}
	want := mustRun(mk(), SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})
	var sink bytes.Buffer
	got, err := NewJob(mk(), SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg},
		WithObserver(MultiObserver(NewJSONLObserver(&sink), NewProgressObserver(&sink)))).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("observer perturbed the Result")
	}
	if sink.Len() == 0 {
		t.Fatal("observers produced no output")
	}
}

// TestJSONLObserverOutput: one valid JSON object per line, with type tags.
func TestJSONLObserverOutput(t *testing.T) {
	cfg := smallConfig(69)
	cfg.MaxSteps, cfg.EvalEvery = 10, 5
	var buf bytes.Buffer
	sink := NewJSONLObserver(&buf)
	if _, err := NewJob(cfg, BSPPolicy{}, WithObserver(sink)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10+10+2 { // 10 steps + 10 syncs + 2 evals
		t.Fatalf("expected 22 events, got %d", len(lines))
	}
	types := map[string]int{}
	for _, line := range lines {
		var rec struct {
			Type  string          `json:"type"`
			Event json.RawMessage `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		types[rec.Type]++
	}
	if types["step"] != 10 || types["sync"] != 10 || types["eval"] != 2 {
		t.Fatalf("event type counts: %v", types)
	}
}

// TestSSPJobCancellation: the event-loop policy honors the context too.
func TestSSPJobCancellation(t *testing.T) {
	cfg := smallConfig(70)
	cfg.MaxSteps, cfg.EvalEvery = 1<<20, 1<<20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var applied int
	job := NewJob(cfg, &SSPPolicy{Staleness: 3}, WithObserver(ObserverFunc(func(e Event) {
		if _, ok := e.(StepEvent); ok {
			applied++
			if applied == 100 {
				cancel()
			}
		}
	})))
	// The event-loop never services checkpoint requests, so Checkpoint
	// must fail fast — before, during, or after the run — instead of
	// parking until the run ends (this call would hang otherwise).
	if _, err := job.Checkpoint(context.Background()); err == nil {
		t.Fatal("SSP checkpoint must be unsupported")
	}
	res, err := job.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.LSSR != -1 || res.Steps == 0 {
		t.Fatalf("partial SSP result inconsistent: %+v", res)
	}
	if _, err := job.Checkpoint(context.Background()); err == nil {
		t.Fatal("SSP checkpoint must be unsupported")
	}
}
