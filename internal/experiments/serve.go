package experiments

import (
	"fmt"
	"io"
	"sort"

	"selsync/internal/comm"
	"selsync/internal/serve"
	"selsync/internal/serve/loadgen"
	"selsync/internal/train"
)

// ServeBuilder adapts the workload factory into the serve daemon's job
// builder: each segment gets a fresh in-process loopback fabric (so the
// daemon can accumulate a cumulative traffic ledger segment by segment)
// and a Job built exactly as cmd/selsync-node would build it from the same
// flags, with the scheduler's resume checkpoint and observer passed through.
func ServeBuilder() serve.Builder {
	return func(spec serve.JobSpec, opts ...train.Option) (serve.BuiltJob, error) {
		lb := comm.NewLoopback(spec.Workers)
		rs := RunSpec{
			Model: spec.Model, Method: spec.Method, Scheme: spec.Scheme,
			Workers: spec.Workers, TrainN: spec.TrainN, TestN: spec.TestN,
			MaxSteps: spec.MaxSteps, Seed: spec.Seed,
			Delta: spec.Delta, GradAgg: spec.GradAgg,
			C: spec.C, E: spec.E, Staleness: spec.Staleness,
			Codec: spec.Codec, Fabric: lb,
		}
		job, _, err := JobFor(rs, opts...)
		if err != nil {
			return serve.BuiltJob{}, err
		}
		return serve.BuiltJob{
			Job:   job,
			Stats: func() comm.Stats { return *lb.Stats() },
			Close: func() { lb.Close() },
		}, nil
	}
}

// JobSpecFor is ServeBuilder's mapping read backwards: the serve.JobSpec
// that submits spec's run to the daemon (selsync-ctl submit). A run the
// JobSpec cannot carry — non-IID placement, a membership plan, a fabric —
// is refused rather than trimmed; the service-level fields are left for
// the caller.
func JobSpecFor(spec RunSpec) (serve.JobSpec, error) {
	if spec.LabelsPerWorker != 0 || spec.Alpha != 0 || spec.Beta != 0 ||
		spec.Membership != "" || spec.Quorum != 0 || spec.Fabric != nil {
		return serve.JobSpec{}, fmt.Errorf("a serve job runs IID on the daemon's loopback: -noniid, -alpha, -beta, -membership and -quorum are not job fields")
	}
	return serve.JobSpec{
		Model: spec.Model, Method: spec.Method, Scheme: spec.Scheme,
		Workers: spec.Workers, TrainN: spec.TrainN, TestN: spec.TestN,
		MaxSteps: spec.MaxSteps, Seed: spec.Seed,
		Delta: spec.Delta, GradAgg: spec.GradAgg,
		C: spec.C, E: spec.E, Staleness: spec.Staleness,
		Codec: spec.Codec,
	}, nil
}

// ServeLoad floods a serve daemon with a seeded stream of mixed-policy,
// mixed-priority jobs from three weighted tenants through the wire
// protocol, and asserts the service-level acceptance bar: every
// submitted job reaches exactly one final state (zero lost, zero
// duplicated), every job completes, and the weighted fair shares track
// the configured weights within 10% total-variation error while every
// tenant stays backlogged. Violations panic — the registry turns that
// into an experiment failure.
func ServeLoad(scale Scale, w io.Writer) *Table {
	cfg := loadgen.Config{Seed: 7}
	switch scale {
	case Tiny:
		cfg.Jobs, cfg.Slots = 64, 4
	case Quick:
		// The acceptance-bar sizing: ≥200 jobs through an 8-slot pool.
		cfg.Jobs, cfg.Slots = 220, 8
	default:
		cfg.Jobs, cfg.Slots = 400, 8
	}
	rep, err := loadgen.Run(ServeBuilder(), cfg)
	if err != nil {
		panic(fmt.Sprintf("serve-load: %v", err))
	}
	if rep.Lost != 0 || rep.Duplicated != 0 {
		panic(fmt.Sprintf("serve-load: %d lost / %d duplicated jobs", rep.Lost, rep.Duplicated))
	}
	if rep.Done != rep.Submitted {
		panic(fmt.Sprintf("serve-load: %d of %d jobs completed (%d failed, %d canceled)",
			rep.Done, rep.Submitted, rep.Failed, rep.Canceled))
	}
	if rep.FairShareSampled && rep.FairShareErr > 0.10 {
		panic(fmt.Sprintf("serve-load: fair-share error %.3f exceeds 0.10", rep.FairShareErr))
	}

	t := &Table{
		Title:   "Multi-tenant serving: seeded mixed-policy load",
		Columns: []string{"jobs", "done", "failed", "lost", "dup", "preempts", "resumes", "max queued", "fair-share err"},
	}
	fsErr := "-"
	if rep.FairShareSampled {
		fsErr = fmtF(rep.FairShareErr, 3)
	}
	t.AddRow(fmtI(rep.Submitted), fmtI(rep.Done), fmtI(rep.Failed),
		fmtI(rep.Lost), fmtI(rep.Duplicated), fmtI(rep.Preemptions),
		fmtI(rep.Resumes), fmtI(rep.MaxQueued), fsErr)
	t.Fprint(w)

	tt := &Table{
		Title:   "Per-tenant fair shares (sampled while all tenants backlogged)",
		Columns: []string{"tenant", "weight", "served steps", "sampled share", "target"},
	}
	names := make([]string, 0, len(rep.TenantSteps))
	for name := range rep.TenantSteps {
		names = append(names, name)
	}
	sort.Strings(names)
	var totalW float64
	for _, tn := range rep.Tenants {
		totalW += tn.Weight
	}
	for _, name := range names {
		var weight float64
		for _, tn := range rep.Tenants {
			if tn.Name == name {
				weight = tn.Weight
			}
		}
		tt.AddRow(name, fmtF(weight, 1), fmt.Sprintf("%d", rep.TenantSteps[name]),
			fmtF(rep.TenantShare[name], 3), fmtF(weight/totalW, 3))
	}
	tt.Fprint(w)
	return t
}
