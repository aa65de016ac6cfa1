package train

// StepBench is a run's step loop opened up for benchmarks: one engine step
// or one evaluation at a time, outside any Job, with the evaluation cadence
// off so that a step is a step. It is shared by the in-package benchmarks
// (bench_test.go) and cmd/selsync-bench -steps, so both measure the same
// loop and their numbers stay comparable across PRs.
type StepBench struct {
	r    *runner
	e    *engine
	next int
}

// NewStepBench builds the run cfg and policy describe, ready for its first
// step. Configuration mistakes panic, as in any benchmark set-up.
func NewStepBench(cfg Config, policy SyncPolicy) *StepBench {
	cfg.MaxSteps = 1 << 30
	cfg.EvalEvery = 1 << 30
	r := newRunner(cfg, "bench", false)
	return &StepBench{r: r, e: newEngine(r, policy)}
}

// Step runs the next training step.
func (s *StepBench) Step() {
	if _, err := s.e.step(s.next); err != nil {
		panic(err)
	}
	s.next++
}

// Evaluate runs one test-set evaluation of the current across-replica mean,
// as the step loop does on its cadence, without recording it.
func (s *StepBench) Evaluate() {
	if _, err := s.r.meanParams(); err != nil {
		panic(err)
	}
	if _, _, err := s.r.evaluate(); err != nil {
		panic(err)
	}
}

// Dispatches returns how many times the run has woken its worker pool.
func (s *StepBench) Dispatches() int { return s.r.cl.Dispatches() }

// Close releases the run's cluster.
func (s *StepBench) Close() { s.r.cl.Close() }
