// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated cluster. Each experiment has one entry
// point taking a Scale and an io.Writer; it prints the same rows/series the
// paper reports and returns the structured data for tests and tooling.
//
// Scales trade fidelity for runtime: Tiny backs the unit tests, Quick backs
// the benchmark harness (bench_test.go), Full is for cmd/selsync-bench.
package experiments

import (
	"fmt"

	"selsync/internal/cluster"
	"selsync/internal/data"
	"selsync/internal/nn"
	"selsync/internal/opt"
	"selsync/internal/train"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Tiny is unit-test sizing: seconds per experiment.
	Tiny Scale = iota
	// Quick is benchmark sizing: tens of seconds for training experiments.
	Quick
	// Full is CLI sizing: the closest to the paper's 16-worker setup.
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Quick:
		return "quick"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Params are the size knobs one Scale implies.
type Params struct {
	Workers   int
	TrainN    int
	TestN     int
	MaxSteps  int
	EvalEvery int
	Patience  int
}

// ParamsFor returns the sizing for a scale. TrainN is chosen so that a
// global epoch spans enough steps for FedAvg's per-epoch sync factor E to
// be meaningful (the paper's CIFAR epochs are ≈98 steps at 16×32).
func ParamsFor(s Scale) Params {
	switch s {
	case Tiny:
		return Params{Workers: 4, TrainN: 2048, TestN: 512, MaxSteps: 80, EvalEvery: 20}
	case Quick:
		return Params{Workers: 8, TrainN: 6144, TestN: 1024, MaxSteps: 120, EvalEvery: 30}
	case Full:
		return Params{Workers: 16, TrainN: 49152, TestN: 2048, MaxSteps: 1500, EvalEvery: 100, Patience: 10}
	default:
		panic("experiments: unknown scale")
	}
}

// Workload bundles everything needed to train one of the paper's four
// model/dataset pairs at a given scale: the factory, the paper-inspired
// optimizer and learning-rate schedule, the per-worker batch size, the
// synthetic dataset pair, the hand-set SelSync δ thresholds and the
// update rule SSP's parameter server applies.
type Workload struct {
	Name     string
	Factory  nn.Factory
	Opt      cluster.OptBuilder
	Schedule opt.Schedule
	Batch    int
	Data     data.Workload

	// DeltaLow/Mid/High are the model's SelSync thresholds, playing the
	// roles of the paper's δ = 0.3 / 0.25 / 0.5. The paper's absolute δ
	// values are tied to its models' gradient-norm dynamics, so these are
	// set by hand per model, under the pinned tracker smoothing (alpha =
	// 0.16, the paper's 16-worker setting), aiming the low setting at the
	// paper's LSSR ≈ 0.7–0.95 band. No recorded procedure backs them;
	// ROADMAP item 2 replaces them with one calibration rule computed from
	// the measured Δ(g_i) distribution.
	DeltaLow, DeltaMid, DeltaHigh float64

	// SSPOpt is the PS-side update rule for SSP runs (nil = plain SGD).
	// The Adam workload keeps Adam at the PS; momentum SGD is not carried
	// over (see train.SSPPolicy.PSOpt).
	SSPOpt cluster.OptBuilder
}

// trackerAlpha pins the Δ(g_i) EWMA smoothing factor to the paper's
// 16-worker value so the hand-set δ thresholds mean the same at every
// experiment scale.
const trackerAlpha = 0.16

// SetupWorkload builds the named workload ("resnet", "vgg", "alexnet" or
// "transformer") at the given sizing.
func SetupWorkload(name string, p Params, seed uint64) Workload {
	w := Workload{
		Name: name,
		Data: data.WorkloadForModel(name, p.TrainN, p.TestN, seed),
	}
	sgd := func(momentum, wd float64) cluster.OptBuilder {
		return func(ps []*nn.Param) opt.Optimizer { return opt.NewSGD(ps, momentum, wd) }
	}
	decayAt := func(base float64, fracs ...float64) opt.Schedule {
		ms := make([]int, len(fracs))
		for i, f := range fracs {
			ms[i] = int(f * float64(p.MaxSteps))
		}
		return opt.StepDecay{Base: base, Factor: 0.1, Milestones: ms}
	}
	switch name {
	case "resnet":
		// Paper: SGD momentum 0.9, weight decay 4e-4, lr decayed 10×
		// twice late in training.
		w.Factory = nn.ResNetLite(10, 6)
		w.Opt = sgd(0.9, 4e-4)
		w.Schedule = decayAt(0.05, 0.6, 0.85)
		w.Batch = 16
		w.DeltaLow, w.DeltaMid, w.DeltaHigh = 0.18, 0.20, 0.30
	case "vgg":
		w.Factory = nn.VGGLite(100)
		w.Opt = sgd(0.9, 5e-4)
		w.Schedule = decayAt(0.04, 0.55, 0.8)
		w.Batch = 16
		w.DeltaLow, w.DeltaMid, w.DeltaHigh = 0.055, 0.06, 0.075
	case "alexnet":
		// Paper: Adam with a fixed learning rate (the only fixed-lr
		// workload, which Fig. 10 leans on). SSP keeps Adam at the PS.
		w.Factory = nn.AlexNetLite(20)
		w.Opt = func(ps []*nn.Param) opt.Optimizer { return opt.NewAdam(ps) }
		w.Schedule = opt.Constant{Rate: 1e-3}
		w.Batch = 32
		w.DeltaLow, w.DeltaMid, w.DeltaHigh = 0.045, 0.055, 0.075
		w.SSPOpt = w.Opt
	case "transformer":
		// Paper: SGD lr 2.0 decayed by 0.8 every 2000 iterations.
		w.Factory = nn.TransformerLite()
		w.Opt = sgd(0, 0)
		w.Schedule = opt.ExpDecay{Base: 1.0, Factor: 0.8, Interval: max(1, p.MaxSteps/2)}
		w.Batch = 8
		w.DeltaLow, w.DeltaMid, w.DeltaHigh = 0.045, 0.06, 0.09
	default:
		panic(fmt.Sprintf("experiments: unknown workload %q", name))
	}
	return w
}

// BaseConfig assembles the train.Config shared by the training experiments:
// the workload's model/optimizer/schedule/data, the scale's sizing, and the
// pinned tracker smoothing.
func BaseConfig(wl Workload, p Params, seed uint64) train.Config {
	return train.Config{
		Model: wl.Factory, Workers: p.Workers, Batch: wl.Batch, Seed: seed,
		Train: wl.Data.Train, Test: wl.Data.Test, Scheme: data.SelDP,
		Opt: wl.Opt, Schedule: wl.Schedule,
		MaxSteps: p.MaxSteps, EvalEvery: p.EvalEvery, Patience: p.Patience,
		TrackerAlpha: trackerAlpha,
	}
}

// NonIIDSyncFactor returns the FedAvg/paper sync factor E for non-IID
// experiments. The paper's E=0.1 assumes ≈150–400-step epochs; at reduced
// scales that would degenerate to synchronizing every step, so the factor
// is widened until roughly six local steps separate synchronizations —
// preserving the paper's "substantial local phase between rounds" regime.
func NonIIDSyncFactor(p Params, workers, batch int) float64 {
	stepsPerEpoch := p.TrainN / (workers * batch)
	if stepsPerEpoch >= 60 {
		return 0.1 // the paper's setting
	}
	e := 6.0 / float64(max(1, stepsPerEpoch))
	if e > 1 {
		e = 1
	}
	return e
}

// AllWorkloads returns the four paper workloads in report order.
func AllWorkloads() []string { return []string{"resnet", "vgg", "alexnet", "transformer"} }
