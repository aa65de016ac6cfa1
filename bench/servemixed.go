package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"selsync/internal/experiments"
	"selsync/internal/serve"
)

// serveMixed is the control-plane workload: a seeded backlog of small
// background jobs is submitted up front (a batch drain, so throughput is
// work completed per second at a stated size) while priority-1 jobs arrive
// on a fixed open-loop schedule and preempt them. Everything goes through
// serve.Client over the in-process pipe listener.
type serveMixed struct {
	slots   int
	tenants []string
	weights map[string]float64
	methods []string
	// bgRate and hiRate size the run: bgRate × --seconds background jobs and
	// hiRate × --seconds arrivals. The backlog is a little more than two
	// slots drain on the reference box while the arrivals last, so that
	// every arrival meets a busy daemon and jobs_per_s measures capacity,
	// not the arrival schedule.
	bgRate, hiRate float64
	// hiPeriod is the open loop's fixed inter-arrival time.
	hiPeriod        time.Duration
	bgSteps, hiStep int
}

var serveMixedWorkload = serveMixed{
	slots:   2,
	tenants: []string{"anna", "bo", "cyn"},
	weights: map[string]float64{"anna": 3, "bo": 2, "cyn": 1},
	methods: []string{"bsp", "selsync", "local", "fedavg", "bsp:3,selsync"},
	bgRate:  9.5, hiRate: 4,
	hiPeriod: 200 * time.Millisecond,
	bgSteps:  20, hiStep: 6,
}

const serveMixedName = "serve-mixed"

// evRecovery is the train event a resumed segment emits first.
const evRecovery = "recovery"

// lifeEvent is one lifecycle event of a job as the client saw it arrive.
type lifeEvent struct {
	typ  string
	step int
	at   time.Time
}

// stamp is a moment of the run: the time and the process's CPU time so far.
type stamp struct {
	at  time.Time
	cpu time.Duration
}

// jobLog is everything the client side learned about one job.
type jobLog struct {
	spec      serve.JobSpec
	hi        bool
	due       time.Time // open-loop jobs: when the schedule says to submit
	sent      time.Time // submit request written
	acked     time.Time // submit response read
	id        string
	refused   error
	events    []lifeEvent
	stepAt    []stamp // when each of the job's step events arrived
	nEvents   int
	bestAcc   float64
	finals    int
	final     string // type of the last final event
	digest    string
	streamErr error
}

func (j *jobLog) first(typ string) (time.Time, bool) {
	for _, e := range j.events {
		if e.typ == typ {
			return e.at, true
		}
	}
	return time.Time{}, false
}

// specs derives the run's jobs from the seed: a balanced, shuffled policy
// mix (so every seed carries the same amount of each policy's work) with
// tenants round-robin.
func (w serveMixed) specs(seed uint64, nBG, nHi int) (bg, hi []serve.JobSpec) {
	rng := rand.New(rand.NewSource(int64(seed)))
	mix := func(n int) []string {
		m := make([]string, n)
		for i := range m {
			m[i] = w.methods[i%len(w.methods)]
		}
		rng.Shuffle(n, func(a, b int) { m[a], m[b] = m[b], m[a] })
		return m
	}
	build := func(n, steps, prio int, tag string) []serve.JobSpec {
		methods := mix(n)
		out := make([]serve.JobSpec, n)
		for i := range out {
			out[i] = serve.JobSpec{
				Name: fmt.Sprintf("%s-%04d", tag, i), Tenant: w.tenants[i%len(w.tenants)], Priority: prio,
				Model: "resnet", Method: methods[i], Workers: 2, TrainN: 96, TestN: 32,
				MaxSteps: steps, Seed: seed*100003 + uint64(rng.Int63n(1<<30)),
				// The daemon's own defaults, spelled out so that the spec
				// means the same run outside the daemon.
				C: 1, E: 0.25,
			}
		}
		return out
	}
	return build(nBG, w.bgSteps, 0, "bg"), build(nHi, w.hiStep, 1, "hi")
}

// servePoll is one status sample of a traced run.
type servePoll struct {
	queued, occupied int
	fairErr          float64
	fairOK           bool
}

// serveRun is what one run of serve-mixed measured.
type serveRun struct {
	jobs      []*jobLog
	begin     time.Time // first submit written
	lastDue   time.Time // when the last arrival was due
	lastFinal time.Time
	netBytes  int64
	lost, dup int
	polls     []servePoll
	// digestChecked is the preempted job whose digest was compared with an
	// unpreempted run of the same spec; digestOK the verdict.
	digestChecked string
	digestOK      bool
}

// server builds the daemon and its in-process listener.
func (w serveMixed) server(queue int) (*serve.Server, *serve.PipeListener) {
	srv := serve.NewServer(experiments.ServeBuilder(), serve.Options{
		Slots: w.slots, QueueLimit: queue, Weights: w.weights,
	})
	lis := serve.NewPipeListener()
	go srv.Serve(lis) // returns when srv.Close closes the listener
	return srv, lis
}

func dial(lis *serve.PipeListener) (*serve.Client, error) {
	conn, err := lis.Dial()
	if err != nil {
		return nil, err
	}
	return serve.NewClient(conn), nil
}

// submit sends j's spec on cl and records when it was written and
// acknowledged.
func submit(cl *serve.Client, j *jobLog) {
	j.sent = time.Now()
	j.id, j.refused = cl.Submit(j.spec)
	j.acked = time.Now()
}

// stream records j's event stream on cl until the final event.
func stream(cl *serve.Client, j *jobLog) {
	j.streamErr = cl.Events(j.id, 0, func(ev serve.WireEvent) error {
		at := time.Now()
		j.nEvents++
		switch ev.Type {
		case serve.EvSubmitted, serve.EvStart, serve.EvParked, evRecovery,
			serve.EvDone, serve.EvFailed, serve.EvCanceled:
			j.events = append(j.events, lifeEvent{typ: ev.Type, step: ev.Step, at: at})
		case "step":
			j.stepAt = append(j.stepAt, stamp{at, cpuTime()})
		case "eval":
			var e struct{ Metric float64 }
			if json.Unmarshal(ev.Data, &e) == nil && e.Metric > j.bestAcc {
				j.bestAcc = e.Metric
			}
		}
		if ev.Final {
			j.finals++
			j.final, j.digest = ev.Type, ev.Digest
		}
		return nil
	})
}

// run drives one drain of the workload: the backlog is submitted in order
// on one connection, then arrival k is submitted k × hiPeriod later on a
// connection of its own, whatever the daemon is doing (an open loop). Each
// job's events are followed on their own connection until its final event.
// With traced set a status poller samples the scheduler every 20 ms.
func (w serveMixed) run(seed uint64, nBG, nHi int, traced bool) (*serveRun, error) {
	bg, hi := w.specs(seed, nBG, nHi)
	srv, lis := w.server(nBG + nHi + 16)
	defer srv.Close()
	submitter, err := dial(lis)
	if err != nil {
		return nil, err
	}
	defer submitter.Close()

	run := &serveRun{}
	for _, s := range bg {
		run.jobs = append(run.jobs, &jobLog{spec: s})
	}
	for _, s := range hi {
		run.jobs = append(run.jobs, &jobLog{spec: s, hi: true})
	}

	run.begin = time.Now()
	var wg sync.WaitGroup
	follow := func(j *jobLog) {
		defer wg.Done()
		cl, err := dial(lis)
		if err != nil {
			j.streamErr = err
			return
		}
		defer cl.Close()
		if j.hi {
			submit(cl, j)
		}
		if j.refused == nil {
			stream(cl, j)
		}
	}
	for _, j := range run.jobs[:nBG] {
		if submit(submitter, j); j.refused == nil {
			wg.Add(1)
			go follow(j)
		}
	}

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if traced {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			run.polls = w.poll(lis, stopPoll)
		}()
	}

	arrivals := time.Now()
	for k, j := range run.jobs[nBG:] {
		j.due = arrivals.Add(time.Duration(k) * w.hiPeriod)
		run.lastDue = j.due
		time.Sleep(time.Until(j.due))
		wg.Add(1)
		go follow(j)
	}
	wg.Wait()
	close(stopPoll)
	pollWG.Wait()

	st, err := submitter.Status()
	if err != nil {
		return nil, err
	}
	run.audit(st)
	run.checkPreemptedDigest()
	return run, nil
}

// poll samples the daemon's status every 20 ms until stop closes.
func (w serveMixed) poll(lis *serve.PipeListener, stop <-chan struct{}) []servePoll {
	cl, err := dial(lis)
	if err != nil {
		return nil
	}
	defer cl.Close()
	var totalW float64
	for _, x := range w.weights {
		totalW += x
	}
	var polls []servePoll
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return polls
		case <-tick.C:
		}
		st, err := cl.Status()
		if err != nil {
			return polls
		}
		p := servePoll{queued: st.Queued + st.Parked, occupied: st.Occupied}
		// Fair share is defined only while every tenant has backlog.
		backlogged := map[string]bool{}
		for _, j := range st.Jobs {
			if j.State == serve.StateQueued || j.State == serve.StateParked {
				backlogged[j.Tenant] = true
			}
		}
		var served int64
		for _, ts := range st.Tenants {
			served += ts.ServedSteps
		}
		if len(backlogged) == len(w.tenants) && served > 0 {
			p.fairOK = true
			for _, ts := range st.Tenants {
				d := ts.Share - w.weights[ts.Tenant]/totalW
				if d < 0 {
					d = -d
				}
				p.fairErr += d / 2
			}
		}
		polls = append(polls, p)
	}
}

// audit counts lost and duplicated jobs against the final status and takes
// the daemon's cumulative fabric ledger.
func (r *serveRun) audit(st *serve.Status) {
	r.netBytes = st.Net.Bytes.Recv + st.Net.Bytes.Sent
	inStatus := map[string]int{}
	for _, j := range st.Jobs {
		inStatus[j.Job]++
	}
	issued := map[string]int{}
	for _, j := range r.jobs {
		if j.refused != nil {
			continue
		}
		issued[j.id]++
		switch {
		case j.streamErr != nil || j.finals == 0 || inStatus[j.id] == 0:
			r.lost++
		case j.finals > 1 || inStatus[j.id] > 1 || issued[j.id] > 1:
			r.dup++
		}
		for _, e := range j.events {
			if e.at.After(r.lastFinal) && (e.typ == serve.EvDone || e.typ == serve.EvFailed || e.typ == serve.EvCanceled) {
				r.lastFinal = e.at
			}
		}
	}
}

// checkPreemptedDigest reruns the first preempted job's spec outside the
// daemon, unpreempted, and compares digests: parking and resuming must not
// change a result.
func (r *serveRun) checkPreemptedDigest() {
	r.digestOK = true
	for _, j := range r.jobs {
		if _, parked := j.first(serve.EvParked); !parked || j.final != serve.EvDone {
			continue
		}
		built, err := experiments.ServeBuilder()(j.spec)
		if err != nil {
			r.digestChecked, r.digestOK = j.id, false
			return
		}
		res, err := built.Job.Run(context.Background())
		built.Close()
		r.digestChecked = j.id
		r.digestOK = err == nil && res.Digest() == j.digest
		return
	}
}

// errFirstStep ends a set-up probe's event stream at the job's first step.
var errFirstStep = errors.New("first step seen")

// setupOnce is one repetition of the workload's set-up: build the daemon,
// connect, and get one job as far as its first training step — the same
// end point the training workloads' set-up has.
func (w serveMixed) setupOnce(seed uint64) (time.Duration, error) {
	entry := time.Now()
	bg, _ := w.specs(seed, 1, 0)
	srv, lis := w.server(16)
	defer srv.Close()
	cl, err := dial(lis)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	id, err := cl.Submit(bg[0])
	if err != nil {
		return 0, err
	}
	err = cl.Events(id, 0, func(ev serve.WireEvent) error {
		if ev.Type == "step" {
			return errFirstStep
		}
		return nil
	})
	if !errors.Is(err, errFirstStep) {
		return 0, fmt.Errorf("set-up job %s ended before its first step: %v", id, err)
	}
	return time.Since(entry), nil
}

// measure runs the workload and turns what the client saw into metrics.
func (w serveMixed) measure(res *result, sz sizing, outDir string) error {
	nBG, nHi := max(1, int(w.bgRate*sz.seconds)), max(1, int(w.hiRate*sz.seconds))
	res.Sizes["jobs"], res.Sizes["background_jobs"], res.Sizes["arrivals"] = nBG+nHi, nBG, nHi
	res.Attempted = nBG + nHi
	run, err := w.run(res.Seed, nBG, nHi, res.Traced)
	if err != nil {
		return err
	}
	if !res.Traced {
		// The measured run is the first set-up, counted from process start
		// to the first step event of any job; the others repeat it afterwards
		// with a daemon and one job of their own.
		first := run.lastFinal
		for _, j := range run.jobs {
			if len(j.stepAt) > 0 && j.stepAt[0].at.Before(first) {
				first = j.stepAt[0].at
			}
		}
		setups := []float64{first.Sub(procStart).Seconds()}
		for i := 1; i < sz.setupReps; i++ {
			d, err := w.setupOnce(res.Seed)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		res.emit("setup_s", median(setups), len(setups))
	}
	var refused, notDone, steps int
	var bgFinals, acc, hiStart, late, ack, queueWait, park, resume, events []float64
	var parks []time.Time
	for _, j := range run.jobs {
		for _, e := range j.events {
			if e.typ == serve.EvParked {
				parks = append(parks, e.at)
			}
		}
	}
	sort.Slice(parks, func(a, b int) bool { return parks[a].Before(parks[b]) })
	for _, j := range run.jobs {
		if j.refused != nil {
			refused++
			continue
		}
		if j.final != serve.EvDone {
			notDone++
			continue
		}
		steps += j.spec.MaxSteps
		ack = append(ack, ms(j.acked.Sub(j.sent)))
		events = append(events, float64(j.nEvents))
		start, _ := j.first(serve.EvStart)
		if j.hi {
			hiStart = append(hiStart, ms(start.Sub(j.due)))
			late = append(late, ms(j.sent.Sub(j.due)))
			// The victim this arrival displaced is the first job parked
			// between its submit and its start.
			i := sort.Search(len(parks), func(i int) bool { return !parks[i].Before(j.sent) })
			if i < len(parks) && parks[i].Before(start) {
				park = append(park, ms(parks[i].Sub(j.sent)))
			}
		} else {
			queueWait = append(queueWait, ms(start.Sub(j.acked)))
			acc = append(acc, j.bestAcc)
			bgFinals = append(bgFinals, j.events[len(j.events)-1].at.Sub(run.begin).Seconds())
		}
		// A resumed segment's first event is its recovery, right after the
		// start that follows a parked.
		for i, e := range j.events {
			if e.typ == evRecovery && i > 0 {
				resume = append(resume, ms(e.at.Sub(j.events[i-1].at)))
			}
		}
	}
	res.Failed += refused + notDone + run.lost + run.dup
	// Every job's result depends on its spec alone, preempted or not, so
	// the run's digest is the digest of the jobs' digests in spec order.
	h := sha256.New()
	for _, j := range run.jobs {
		h.Write([]byte(j.digest + "\n"))
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	res.Sizes["steps"] = steps
	res.gate("0 jobs lost", run.lost == 0, fmt.Sprint(run.lost))
	res.gate("0 jobs duplicated", run.dup == 0, fmt.Sprint(run.dup))
	res.gate("every job done", refused+notDone == 0, fmt.Sprintf("%d refused, %d failed or cancelled", refused, notDone))
	res.gate("preempted job's digest equals unpreempted run", run.digestChecked != "" && run.digestOK,
		fmt.Sprintf("job %q, %d preemptions", run.digestChecked, len(parks)))

	// Every rate below is the typical rate: see typicalStepRate.
	sort.Float64s(bgFinals)
	drained := run.begin.Add(time.Duration(bgFinals[len(bgFinals)-1] * float64(time.Second)))
	halfDrained := run.begin.Add(time.Duration(percentile(bgFinals, 50) * float64(time.Second)))
	rate, cpuPerStep, blocks := run.typicalStepRate(drained)
	// The serve analogue of reaching a target: the backlog's own steps up to
	// the moment half of it was final, at the typical rate. The arrivals'
	// steps are left out because their number by that moment grows with the
	// time it takes to get there, which turns a 10 % slower machine into a
	// 20 % longer time.
	var stepsToHalf int
	for _, j := range run.jobs {
		for _, s := range j.stepAt {
			if !j.hi && !s.at.After(halfDrained) {
				stepsToHalf++
			}
		}
	}
	finals := float64(len(ack))
	fsteps := float64(max(1, steps))
	var meanAcc float64
	for _, a := range acc {
		meanAcc += a / float64(len(acc))
	}
	res.Rate = finals * rate / fsteps
	res.emit("steps_per_s", rate, blocks)
	res.emit("time_to_target_s", float64(stepsToHalf)/rate, len(bgFinals))
	res.emit("best_acc_pct", meanAcc, len(acc))
	res.emit("wire_bytes_per_step", float64(run.netBytes)/fsteps, 1)
	res.emit("cpu_ms_per_step", ms(cpuPerStep), blocks)
	res.emit("peak_rss_mb", peakRSSMB(), 1)
	res.emit("jobs_per_s", res.Rate, blocks)
	res.emit("hi_start_p50_ms", median(hiStart), len(hiStart))
	if !res.Traced {
		return nil
	}

	res.emit("serve.submit_ack_ms_p50", median(ack), len(ack))
	res.emit("serve.queue_wait_ms_p50", median(queueWait), len(queueWait))
	res.emit("serve.park_ms_p50", median(park), len(park))
	res.emit("serve.resume_ms_p50", median(resume), len(resume))
	res.emit("serve.hi_start_ms_p90", percentile(hiStart, 90), len(hiStart))
	res.emit("serve.preemptions", float64(len(parks)), 1)
	res.emit("serve.resumes", float64(len(resume)), 1)
	var maxQueued int
	var busy, fairErr float64
	for _, p := range run.polls {
		maxQueued = max(maxQueued, p.queued)
		busy += float64(p.occupied) / float64(w.slots) / float64(len(run.polls))
		if p.fairOK {
			fairErr = p.fairErr // the last sample with every tenant backlogged
		}
	}
	res.emit("serve.max_queued", float64(maxQueued), len(run.polls))
	res.emit("serve.fair_share_err", fairErr, len(run.polls))
	res.emit("serve.slot_busy_share", busy, len(run.polls))
	res.emit("serve.events_per_job", median(events), len(events))
	res.emit("serve.lost", float64(run.lost), 1)
	res.emit("serve.duplicated", float64(run.dup), 1)
	res.emit("serve.gen_late_ms_p50", median(late), len(late))
	// The daemon keeps its jobs' fabrics and engine events to itself; the
	// probes below fill in the train metrics that need neither.
	emitZero(res, "comm.")
	emitZero(res, "train.")
	runProbes(res, c100, res.Seed, sz.probeSamples)
	res.TraceFile, err = writeTrace(outDir, traceFile{Env: res.Env, Workload: serveMixedName, Seed: res.Seed, Ranks: []*rankTrace{run.spans()}})
	return err
}

// typicalStepRate is the daemon's training-step rate, and the CPU time a
// step costs the process, with machine noise taken out as typical does it
// for the training workloads: the step events of all jobs, in the order
// they reached the client, are cut into quietBlocks contiguous blocks, and
// the answer is the fastest block's rate and the cheapest block's CPU time
// per step. The blocks cover the part of the run that has both a backlog and
// arrivals — first step event until the last arrival was due or the backlog's
// last final event `drained`, whichever came first — because the daemon steps
// faster once nothing preempts, and the fastest block would be found there.
// A run too short to have blocks of ten steps in that part takes all of it
// up to `drained` as one block. Also returns how many blocks that is.
func (r *serveRun) typicalStepRate(drained time.Time) (rate float64, cpuPerStep time.Duration, blocks int) {
	var steps []stamp
	for _, j := range r.jobs {
		steps = append(steps, j.stepAt...)
	}
	sort.Slice(steps, func(a, b int) bool { return steps[a].at.Before(steps[b].at) })
	before := func(t time.Time) int {
		return sort.Search(len(steps), func(i int) bool { return steps[i].at.After(t) })
	}
	steps = steps[:before(drained)]
	blocks = 1
	if n := before(r.lastDue); n > 10*quietBlocks {
		steps, blocks = steps[:n], quietBlocks
	}
	last := len(steps) - 1
	for b := 0; b < blocks; b++ {
		from, to := steps[b*last/blocks], steps[(b+1)*last/blocks]
		n := float64((b+1)*last/blocks - b*last/blocks)
		if blockRate := n / to.at.Sub(from.at).Seconds(); blockRate > rate {
			rate = blockRate
		}
		if c := time.Duration(float64(to.cpu-from.cpu) / n); b == 0 || c < cpuPerStep {
			cpuPerStep = c
		}
	}
	return rate, cpuPerStep, blocks
}

// spans renders the jobs' lifecycles as spans: a root per job from submit
// to final event, and under it one child per state the job passed through
// (queued, running, parked), each from the event that entered the state to
// the event that left it.
func (r *serveRun) spans() *rankTrace {
	tr := &rankTrace{}
	since := func(t time.Time) int64 { return int64(t.Sub(r.begin)) }
	for _, j := range r.jobs {
		if len(j.events) == 0 {
			continue
		}
		root := len(tr.Spans)
		last := j.events[len(j.events)-1]
		tr.Spans = append(tr.Spans, span{Name: "job", Start: since(j.sent), End: since(last.at), Parent: -1, Step: last.step})
		for i, e := range j.events[:len(j.events)-1] {
			var state string
			switch e.typ {
			case serve.EvSubmitted:
				state = "queued"
			case serve.EvStart:
				state = "running"
			case serve.EvParked:
				state = "parked"
			default:
				continue // recovery: a point inside running
			}
			next := j.events[i+1]
			if next.typ == evRecovery {
				next = j.events[i+2] // a resumed segment ends at the event after its recovery
			}
			tr.Spans = append(tr.Spans, span{Name: state, Start: since(e.at), End: since(next.at), Parent: root, Step: e.step})
		}
	}
	return tr
}
