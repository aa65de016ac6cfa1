package train

import (
	"fmt"
	"math"

	"selsync/internal/comm"
	"selsync/internal/nn"
	"selsync/internal/opt"
	"selsync/internal/tensor"
)

// Distributed SSP. Unlike the SPMD algorithms, SSP's parameter server is
// genuinely central: updates apply one at a time in virtual-push order, so
// the discrete-event loop cannot be replicated rank-locally. Instead rank
// 0 coordinates — it owns the global model, the PS optimizer and the event
// queue — and the other ranks serve compute requests for their hosted
// workers: pull the shipped parameters, run one real forward+backward on
// the worker's own sampler stream, and push the gradient plus the modeled
// compute time back. Because each worker's sampler and device-jitter
// streams advance in the same per-worker order as in a single-process run,
// the coordinator reproduces the loopback SSP trajectory bit for bit;
// rank 0's Result is the authoritative one.
func runSSPMesh(r *runner, opts SSPOptions, link *comm.Mesh) {
	if r.cl.Rank() == 0 {
		runSSPCoordinator(r, opts, link)
	} else {
		runSSPServe(r, link)
	}
}

func runSSPCoordinator(r *runner, opts SSPOptions, link *comm.Mesh) {
	n := r.cl.N()
	procs := r.cl.Procs()
	global := r.cl.PS.Global

	psParam := &nn.Param{Name: "global", Data: global, Grad: tensor.NewVector(r.cl.Dim())}
	psBuilder := opts.PSOpt
	if psBuilder == nil {
		psBuilder = func(ps []*nn.Param) opt.Optimizer { return opt.NewSGD(ps, 0, 0) }
	}
	psOpt := psBuilder([]*nn.Param{psParam})

	steps := make([]int, n)
	clocks := make([]float64, n)
	completion := make([]float64, n)
	startAt := make([]float64, n)
	active := make([]bool, n)  // iteration in flight (event time known or pending)
	blocked := make([]bool, n) // held back by the staleness gate
	pending := make([]tensor.Vector, n)
	for w := range pending {
		pending[w] = tensor.NewVector(r.cl.Dim())
	}
	outQ := make([][]int, procs) // per-peer FIFO of outstanding remote workers
	commCost := r.cl.Network.PSPush(r.spec.WireBytes, 1) + r.cl.Network.PSPull(r.spec.WireBytes, 1)

	r.clock = func() float64 {
		var m float64
		for _, c := range clocks {
			if c > m {
				m = c
			}
		}
		return m
	}

	// start schedules worker w's next iteration at virtual time `now`:
	// hosted workers compute inline (as in the loopback loop), remote ones
	// get the current global model shipped and compute on their own rank.
	start := func(w int, now float64) {
		startAt[w] = now
		active[w] = true
		r.cl.AccountPull(1)
		if lw := r.cl.LocalWorker(w); lw != nil {
			lw.SetParams(global)
			batch := r.samplers[w].Next()
			x, labels := r.cfg.Train.Batch(batch)
			loss, _ := lw.Model.ComputeGradients(x, labels)
			r.losses[w] = loss
			pending[w].CopyFrom(lw.FlatGrads())
			tc := lw.Device.ComputeTime(stepFlopsFor(r, len(batch)))
			completion[w] = now + tc + commCost
			return
		}
		owner := link.OwnerOf(w)
		if err := link.SendControl(owner, comm.CtlSSPStart, w, now, 0); err != nil {
			panic(fmt.Errorf("train: ssp start for worker %d: %w", w, err))
		}
		if err := link.SendTensor(owner, w, global); err != nil {
			panic(fmt.Errorf("train: ssp params for worker %d: %w", w, err))
		}
		outQ[owner] = append(outQ[owner], w)
	}

	// collect drains every outstanding remote computation — the event loop
	// needs all completion times before it can pick the earliest push.
	// Each peer serves requests in arrival order, so replies are matched
	// FIFO per peer.
	collect := func() {
		for p := 1; p < procs; p++ {
			for len(outQ[p]) > 0 {
				w := outQ[p][0]
				outQ[p] = outQ[p][1:]
				msg, err := link.RecvControl(p)
				if err != nil {
					panic(fmt.Errorf("train: ssp reply from rank %d: %w", p, err))
				}
				if msg.Op != comm.CtlSSPGrad || msg.Worker != w {
					panic(fmt.Sprintf("train: ssp reply mismatch: got op %d worker %d, want worker %d", msg.Op, msg.Worker, w))
				}
				if err := link.RecvTensorInto(p, w, pending[w]); err != nil {
					panic(fmt.Errorf("train: ssp gradient for worker %d: %w", w, err))
				}
				r.losses[w] = msg.A
				completion[w] = startAt[w] + msg.B + commCost
			}
		}
	}

	for w := 0; w < n; w++ {
		start(w, 0)
	}

	minSteps := func() int {
		m := steps[0]
		for _, s := range steps[1:] {
			if s < m {
				m = s
			}
		}
		return m
	}

	totalApplied := 0
	for {
		collect()
		// Earliest pending push wins.
		next := -1
		for w := 0; w < n; w++ {
			if active[w] && (next == -1 || completion[w] < completion[next]) {
				next = w
			}
		}
		if next == -1 {
			panic("train: SSP deadlock — all workers blocked")
		}
		now := completion[next]
		clocks[next] = now

		// Apply the (possibly stale) gradient at the PS.
		psParam.Grad.CopyFrom(pending[next])
		active[next] = false
		r.cl.AccountPush(1)
		perWorkerStep := totalApplied / n
		psOpt.Step(r.lr(perWorkerStep) / float64(n))
		steps[next]++
		totalApplied++
		if r.obs != nil {
			// Rank-0 event forwarding: the coordinator applies every
			// update — including those computed on remote ranks — so it
			// forwards the whole run's step events.
			r.obs.OnEvent(StepEvent{
				Step:     steps[next] - 1,
				Action:   ActSyncGrads,
				LR:       r.lr(perWorkerStep) / float64(n),
				MeanLoss: r.losses[next],
				SimTime:  now,
			})
		}

		if totalApplied%(r.cfg.EvalEvery*n) == 0 || totalApplied >= r.cfg.MaxSteps*n {
			loss, metric := r.evalParams(global)
			r.record(totalApplied/n-1, loss, metric)
		}
		if totalApplied >= r.cfg.MaxSteps*n || r.stop || r.cancelled() {
			break
		}

		// Staleness gate: resume this worker and any unblocked ones.
		ms := minSteps()
		if steps[next]-ms <= opts.Staleness {
			start(next, now)
		} else {
			blocked[next] = true
		}
		for w := 0; w < n; w++ {
			if blocked[w] && steps[w]-ms <= opts.Staleness {
				blocked[w] = false
				resume := math.Max(clocks[w], now)
				clocks[w] = resume
				start(w, resume)
			}
		}
	}

	// Wind the serve loops down. In-flight computations are drained first
	// so no tensor stream is left mid-air when Stop lands.
	collect()
	for p := 1; p < procs; p++ {
		if err := link.SendControl(p, comm.CtlStop, -1, 0, 0); err != nil {
			panic(fmt.Errorf("train: ssp stop to rank %d: %w", p, err))
		}
	}
	total := 0
	for _, s := range steps {
		total += s
	}
	mean := total / n
	r.sspSteps = &mean
}

// runSSPServe is the worker-rank side of distributed SSP: answer compute
// requests for hosted workers until Stop.
func runSSPServe(r *runner, link *comm.Mesh) {
	buf := tensor.NewVector(r.cl.Dim())
	zero := 0
	r.sspSteps = &zero                    // rank 0 holds the authoritative counts
	r.clock = func() float64 { return 0 } // and the authoritative clocks
	for {
		msg, err := link.RecvControl(0)
		if err != nil {
			panic(fmt.Errorf("train: ssp serve recv: %w", err))
		}
		switch msg.Op {
		case comm.CtlStop:
			return
		case comm.CtlSSPStart:
			w := r.cl.LocalWorker(msg.Worker)
			if w == nil {
				panic(fmt.Sprintf("train: ssp request for worker %d not hosted here", msg.Worker))
			}
			if err := link.RecvTensorInto(0, msg.Worker, buf); err != nil {
				panic(fmt.Errorf("train: ssp params recv: %w", err))
			}
			w.SetParams(buf)
			batch := r.samplers[msg.Worker].Next()
			x, labels := r.cfg.Train.Batch(batch)
			loss, _ := w.Model.ComputeGradients(x, labels)
			tc := w.Device.ComputeTime(stepFlopsFor(r, len(batch)))
			if err := link.SendControl(0, comm.CtlSSPGrad, msg.Worker, loss, tc); err != nil {
				panic(fmt.Errorf("train: ssp reply send: %w", err))
			}
			if err := link.SendTensor(0, msg.Worker, w.FlatGrads()); err != nil {
				panic(fmt.Errorf("train: ssp gradient send: %w", err))
			}
		default:
			panic(fmt.Sprintf("train: ssp serve: unexpected control op %d", msg.Op))
		}
	}
}
