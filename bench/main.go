// Command bench is the repository's end-to-end benchmark. It measures the
// training engine, the comm fabric and the serving daemon from outside, on
// five named workloads, and prints every metric by name with its unit.
//
// One run of one workload, as the contract in BENCHMARK.json asks:
//
//	go run -C bench . --workload tcp-bsp --seed 1 --seconds 20 --trace 0
//
// prints the end-to-end metrics (--trace 1: the per-layer metrics of a
// traced run, whose spans go to out/trace-<workload>.json) and, as the
// last line of standard output, one JSON object. Without --workload it
// runs the whole suite, every run in a process of its own, checks the
// gates that span runs, and writes a report with an environment block:
//
//	go run -C bench . -seed 1 -out out/a.json
//	go run -C bench . -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// procStart approximates process start: the first set-up sample of a run
// counts from here, so runtime and package initialisation are in it.
var procStart = time.Now()

// sizing says how much a run does. The benchmark runs fullSize at the
// --seconds it is given; the tests run a fiftieth of it.
type sizing struct {
	// seconds scales each workload's fixed work (steps, jobs).
	seconds float64
	// setupReps is how many times a run sets its workload up: setup_s is the
	// median over them, the training workloads' hi_start_p50_ms the quietest.
	setupReps int
	// probeSamples is how many timed samples each per-layer probe takes.
	probeSamples int
}

func fullSize(seconds float64) sizing {
	return sizing{seconds: seconds, setupReps: 11, probeSamples: 15}
}

type unitOf struct{ name, unit string }

// endToEnd and perLayer name every metric a run emits, in print order, and
// must equal BENCHMARK.json's lists (bench_test.go checks). A metric that
// has no meaning on a workload is documented in README.md: end-to-end
// metrics then report the closest quantity a user of that workload sees,
// per-layer metrics report 0.
var endToEnd = []unitOf{
	{"setup_s", "s"},
	{"steps_per_s", "1/s"},
	{"time_to_target_s", "s"},
	{"best_acc_pct", "%"},
	{"wire_bytes_per_step", "B"},
	{"cpu_ms_per_step", "ms"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"hi_start_p50_ms", "ms"},
}

var perLayer = []unitOf{
	{"tensor.matmul_ns", "ns"},
	{"tensor.matmul_atb_acc_ns", "ns"},
	{"tensor.matmul_abt_ns", "ns"},
	{"tensor.im2col_ns", "ns"},
	{"tensor.average_ns", "ns"},
	{"tensor.copyall_ns", "ns"},
	{"tensor.sgd_momentum_ns", "ns"},
	{"tensor.topk_select_ns", "ns"},
	{"tensor.quantize8_ns", "ns"},
	{"tensor.dequantize8_ns", "ns"},
	{"nn.compute_gradients_ns", "ns"},
	{"nn.evaluate_ns", "ns"},
	{"nn.step_allocs", "count"},
	{"nn.step_alloc_bytes", "B"},
	{"opt.sgd_step_ns", "ns"},
	{"data.batch_into_ns", "ns"},
	{"data.sampler_next_ns", "ns"},
	{"data.gen_ms", "ms"},
	{"gradstat.observe_ns", "ns"},
	{"cluster.aggregate_grads_ns", "ns"},
	{"cluster.aggregate_params_ns", "ns"},
	{"cluster.exchange_flags_ns", "ns"},
	{"cluster.each_ns", "ns"},
	{"cluster.sync_allocs", "count"},
	{"comm.reduce_calls", "count"},
	{"comm.reduce_busy_ms_per_step", "ms"},
	{"comm.flags_calls", "count"},
	{"comm.flags_busy_ms_per_step", "ms"},
	{"comm.maxfloat_calls", "count"},
	{"comm.fanout_busy_ms_per_step", "ms"},
	{"comm.send_busy_ms_per_step", "ms"},
	{"comm.recv_wait_ms_per_step", "ms"},
	{"comm.codec_cpu_ms_per_step", "ms"},
	{"comm.rank1_reduce_busy_ms_per_step", "ms"},
	{"comm.rank1_send_busy_ms_per_step", "ms"},
	{"comm.rank1_recv_wait_ms_per_step", "ms"},
	{"comm.frames_per_step", "count"},
	{"comm.socket_bytes_per_step", "B"},
	{"comm.logical_bytes_per_step", "B"},
	{"comm.mesh_setup_ms", "ms"},
	{"comm.redials", "count"},
	{"comm.timeouts", "count"},
	{"train.step_ms_p50", "ms"},
	{"train.step_ms_p90", "ms"},
	{"train.local_step_ms_p50", "ms"},
	{"train.sync_step_ms_p50", "ms"},
	{"train.sync_steps", "count"},
	{"train.lssr", "ratio"},
	{"train.steps_to_target", "count"},
	{"train.eval_ms_p50", "ms"},
	{"train.step_minus_comm_ms", "ms"},
	{"train.job_build_ms", "ms"},
	{"train.checkpoint_capture_ms", "ms"},
	{"train.checkpoint_bytes", "B"},
	{"train.resume_restore_ms", "ms"},
	{"serve.submit_ack_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.park_ms_p50", "ms"},
	{"serve.resume_ms_p50", "ms"},
	{"serve.hi_start_ms_p90", "ms"},
	{"serve.preemptions", "count"},
	{"serve.resumes", "count"},
	{"serve.max_queued", "count"},
	{"serve.fair_share_err", "ratio"},
	{"serve.slot_busy_share", "ratio"},
	{"serve.events_per_job", "count"},
	{"serve.lost", "count"},
	{"serve.duplicated", "count"},
	{"serve.gen_late_ms_p50", "ms"},
	{"experiments.job_for_ms", "ms"},
}

// workloadNames lists the workloads in suite order.
func workloadNames() []string {
	var names []string
	for _, w := range trainingWorkloads {
		names = append(names, w.name)
	}
	return append(names, serveMixedName)
}

// measurement is one metric of one run. N is how many samples the value
// summarises (1 for a count or a whole-run ratio).
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// gate is one correctness check of a run.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Env       environment    `json:"environment"`
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Traced    bool           `json:"traced"`
	Sizes     map[string]int `json:"sizes"` // steps, jobs: the work the run was given
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Digest    string         `json:"digest,omitempty"`
	// Rate is the run's own throughput (steps_per_s; jobs_per_s on
	// serve-mixed), kept for traced runs too: tracing overhead is the
	// difference between an untraced and a traced run's rates.
	Rate      float64                `json:"rate"`
	Gates     []gate                 `json:"gates"`
	Metrics   map[string]measurement `json:"metrics"`
	TraceFile string                 `json:"trace_file,omitempty"`

	units map[string]string
}

func newResult(workload string, seed uint64, seconds float64, traced bool) *result {
	r := &result{
		Env: readEnvironment(), Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Sizes: map[string]int{}, Metrics: map[string]measurement{}, units: map[string]string{},
	}
	for _, m := range r.names() {
		r.units[m.name] = m.unit
	}
	return r
}

// names lists the metrics this run must emit.
func (r *result) names() []unitOf {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// emit records a metric of this run's mode; metrics of the other mode are
// dropped, so the code that measures need not know which mode it is in.
func (r *result) emit(name string, value float64, n int) {
	if unit, ok := r.units[name]; ok {
		r.Metrics[name] = measurement{Value: value, Unit: unit, N: n}
	}
}

// gate records a correctness check; a failed gate is a failed operation.
func (r *result) gate(name string, ok bool, detail string) {
	r.Gates = append(r.Gates, gate{Name: name, OK: ok, Detail: detail})
	if !ok {
		r.Failed++
	}
}

// correct reports whether no operation failed — a failed gate is one — and
// every metric was emitted.
func (r *result) correct() bool {
	return r.Failed == 0 && len(r.Metrics) == len(r.names())
}

// print writes the metrics by name and, last, the contract's JSON line.
func (r *result) print() {
	for _, g := range r.Gates {
		status := "ok"
		if !g.OK {
			status = "FAILED"
		}
		fmt.Printf("gate %-44s %s %s\n", g.Name, status, g.Detail)
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]valueUnit{}}
	for _, m := range r.names() {
		got, ok := r.Metrics[m.name]
		if !ok {
			fmt.Printf("%-40s missing\n", m.name)
			continue
		}
		fmt.Printf("%-40s %16.6f %-6s n=%d\n", m.name, got.Value, got.Unit, got.N)
		line.Metrics[m.name] = valueUnit{got.Value, got.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers, strings and bools marshal
	fmt.Println(string(b))
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates linearly between the two samples nearest the
// p-th percentile of v; 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quietBlocks is how many blocks quietest cuts a run's samples into.
const quietBlocks = 20

// quietest cuts v, samples of one cost in the order they were taken, into
// quietBlocks contiguous blocks (one sample each when there are fewer) and
// returns the mean of the block with the lowest mean: what the cost was
// during the twentieth of the run the machine's other tenants disturbed
// least. Interference only ever adds to a time, so the cheapest block is the
// nearest a run on a shared machine comes to the program's own cost, and
// unlike a median it does not move until the noise covers the whole run.
// 0 for no samples.
func quietest(v []float64) float64 {
	n := min(quietBlocks, len(v))
	best := 0.0
	for b := 0; b < n; b++ {
		block := v[b*len(v)/n : (b+1)*len(v)/n]
		var sum float64
		for _, x := range block {
			sum += x
		}
		if mean := sum / float64(len(block)); b == 0 || mean < best {
			best = mean
		}
	}
	return best
}

// runWorkload runs one workload once in this process.
func runWorkload(name string, seed uint64, sz sizing, traced bool, outDir string) (*result, error) {
	res := newResult(name, seed, sz.seconds, traced)
	if name == serveMixedName {
		return res, serveMixedWorkload.measure(res, sz, outDir)
	}
	for _, w := range trainingWorkloads {
		if w.name == name {
			return res, w.measure(res, c100, sz, outDir)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func main() {
	workload := flag.String("workload", "", "workload to run once in this process; empty runs the whole suite")
	seed := flag.Uint64("seed", 1, "every input is generated from this seed")
	seconds := flag.Float64("seconds", defaultSeconds, "sizes each workload: its fixed work takes about this long on the reference box")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
	out := flag.String("out", "", "suite: report file (default out/bench-seed<seed>.json); one workload: also write the run's result here")
	compare := flag.Bool("compare", false, "compare two suite reports given as arguments against BENCHMARK.json's bounds")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1)))
	case *workload == "":
		os.Exit(runSuite(*seed, *seconds, *out))
	}
	res, err := runWorkload(*workload, *seed, fullSize(*seconds), *trace == 1, "out")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	res.print()
	if !res.correct() {
		os.Exit(1)
	}
}
