package serve

import (
	"fmt"
	"strings"

	"selsync/internal/comm"
	"selsync/internal/train"
)

// JobSpec describes one submitted training job: the run parameters (the
// subset of the CLIs' flag table a daemon job carries) plus the
// service-level fields — tenant identity, priority, and a human label. It
// travels as JSON inside a submit Request.
type JobSpec struct {
	// Name is a human label for logs and status output; "" is fine.
	Name string `json:"name,omitempty"`
	// Tenant is the fair-share accounting identity. Jobs from the same
	// tenant pool their served steps; the scheduler keeps tenants'
	// service proportional to their configured weights.
	Tenant string `json:"tenant"`
	// Priority orders admission strictly: a higher-priority job always
	// runs before (and preempts, when slots are full) a lower-priority
	// one. Fair share applies within a priority tier. Default 0.
	Priority int `json:"priority,omitempty"`

	Model    string `json:"model"`
	Method   string `json:"method"`
	Scheme   string `json:"scheme,omitempty"`
	Workers  int    `json:"workers"`
	TrainN   int    `json:"train_n"`
	TestN    int    `json:"test_n"`
	MaxSteps int    `json:"max_steps"`
	Seed     uint64 `json:"seed"`

	Delta   float64 `json:"delta,omitempty"`
	GradAgg bool    `json:"grad_agg,omitempty"`

	C float64 `json:"c,omitempty"`
	E float64 `json:"e,omitempty"`

	Staleness int `json:"staleness,omitempty"`

	Codec string `json:"codec,omitempty"`
}

// Validate rejects specs the scheduler cannot admit. Full run validation
// (model names, policy grammar, codec grammar) happens in the Builder at
// start time; this catches what must hold before queueing.
func (s *JobSpec) Validate() error {
	if s.Tenant == "" {
		return fmt.Errorf("serve: job spec needs a tenant")
	}
	if s.Model == "" || s.Method == "" {
		return fmt.Errorf("serve: job spec needs a model and a method")
	}
	if s.Workers <= 0 || s.TrainN <= 0 || s.TestN <= 0 || s.MaxSteps <= 0 {
		return fmt.Errorf("serve: workers, train_n, test_n and max_steps must be positive")
	}
	return nil
}

// withDefaults fills the policy knobs a submitter left zero with the
// defaults of the CLIs' flag table, so a minimal spec runs as the CLI would.
func (s JobSpec) withDefaults() JobSpec {
	if s.C == 0 {
		s.C = 1
	}
	if s.E == 0 {
		s.E = 0.25
	}
	if s.Staleness == 0 {
		s.Staleness = 100
	}
	return s
}

// Preemptible reports whether the scheduler may park this job through a
// checkpoint. Event-loop policies (SSP and any schedule containing an
// ssp phase) run outside the lock-step engine and cannot checkpoint or
// resume, so the scheduler never preempts them — they hold their slot to
// completion.
func (s *JobSpec) Preemptible() bool {
	for _, phase := range strings.Split(s.Method, ",") {
		name, _, _ := strings.Cut(strings.TrimSpace(phase), ":")
		if strings.TrimSpace(name) == "ssp" {
			return false
		}
	}
	return true
}

// BuiltJob is what a Builder hands the scheduler for one job segment: the
// runnable Job, a ledger snapshot hook read after the segment (cumulative
// wire traffic for the status endpoint), and a fabric release hook.
// Stats and Close may be nil.
type BuiltJob struct {
	Job   *train.Job
	Stats func() comm.Stats
	Close func()
}

// Builder turns an admitted JobSpec into a runnable Job, fabric
// included. The scheduler passes resume checkpoints and its event
// observer through opts. Injected (rather than calling the experiments
// package directly) so serve depends only on train and comm; the
// concrete builder lives in experiments.ServeBuilder.
type Builder func(spec JobSpec, opts ...train.Option) (BuiltJob, error)
