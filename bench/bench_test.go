package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// testSize is about a fiftieth of a full run: one set-up, one sample per
// probe, a few dozen steps, a handful of jobs.
var testSize = sizing{seconds: 0.4, setupReps: 1, probeSamples: 1}

// testTask is c100 with a target a few dozen steps can reach.
func testTask() task {
	t := c100
	t.target = 0.1
	return t
}

func TestNamesEqualBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var workloads []string
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	equal(t, "workloads", workloads, workloadNames())
	var names, units []string
	for _, m := range bf.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	equal(t, "end_to_end names", names, namesOf(endToEnd))
	equal(t, "end_to_end units", units, unitsOf(endToEnd))
	names, units = nil, nil
	for _, m := range bf.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	equal(t, "per_layer names", names, namesOf(perLayer))
	equal(t, "per_layer units", units, unitsOf(perLayer))
	for _, n := range append(append(workloads, namesOf(endToEnd)...), namesOf(perLayer)...) {
		if !valid.MatchString(n) {
			t.Errorf("name %q does not match %v", n, valid)
		}
	}
}

func namesOf(ms []unitOf) (out []string) {
	for _, m := range ms {
		out = append(out, m.name)
	}
	return out
}

func unitsOf(ms []unitOf) (out []string) {
	for _, m := range ms {
		out = append(out, m.unit)
	}
	return out
}

func equal(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json has %d, the program %d\n%v\n%v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %q, the program %q", what, i, got[i], want[i])
		}
	}
}

// runSmall runs one workload at test size, untraced and traced, and checks
// what must hold of any run: it is correct, it emits exactly its mode's
// metrics, and both runs produce the same digest.
func runSmall(t *testing.T, name string, dir string) (untraced, traced *result) {
	t.Helper()
	for _, tracing := range []bool{false, true} {
		res := newResult(name, 1, testSize.seconds, tracing)
		var err error
		if name == serveMixedName {
			err = serveMixedWorkload.measure(res, testSize, dir)
		} else {
			for _, w := range trainingWorkloads {
				if w.name == name {
					err = w.measure(res, testTask(), testSize, dir)
				}
			}
		}
		if err != nil {
			t.Fatalf("%s traced=%v: %v", name, tracing, err)
		}
		for _, g := range res.Gates {
			if !g.OK {
				t.Errorf("%s traced=%v: gate %q failed: %s", name, tracing, g.Name, g.Detail)
			}
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s traced=%v: attempted %d, failed %d", name, tracing, res.Attempted, res.Failed)
		}
		for _, m := range res.names() {
			if _, ok := res.Metrics[m.name]; !ok {
				t.Errorf("%s traced=%v: metric %s not emitted", name, tracing, m.name)
			}
		}
		if len(res.Metrics) != len(res.names()) {
			t.Errorf("%s traced=%v: %d metrics emitted, want %d", name, tracing, len(res.Metrics), len(res.names()))
		}
		if tracing {
			traced = res
		} else {
			untraced = res
		}
	}
	if untraced.Digest == "" || untraced.Digest != traced.Digest {
		t.Errorf("%s: traced digest %q != untraced digest %q", name, traced.Digest, untraced.Digest)
	}
	return untraced, traced
}

// checkSpans reads a trace file back and checks that spans nest: a child
// lies inside its parent, no self time is negative, and a parent's
// children never sum to more than the parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	var tf traceFile
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	for _, rank := range tf.Ranks {
		if len(rank.Spans) == 0 {
			t.Errorf("%s rank %d: no spans", path, rank.Rank)
		}
		for i, s := range rank.Spans {
			if s.End < s.Start {
				t.Errorf("%s rank %d span %d %q ends before it starts", path, rank.Rank, i, s.Name)
			}
			if s.Parent >= i {
				t.Errorf("%s rank %d span %d %q: parent %d is not an earlier span", path, rank.Rank, i, s.Name, s.Parent)
				continue
			}
			if s.Parent >= 0 {
				if p := rank.Spans[s.Parent]; s.Start < p.Start || s.End > p.End {
					t.Errorf("%s rank %d span %d %q [%d,%d] outside parent %q [%d,%d]",
						path, rank.Rank, i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
				}
			}
		}
		for i, self := range selfTimes(rank.Spans) {
			if self < 0 {
				t.Errorf("%s rank %d span %d %q: self time %d ns: children outlast it", path, rank.Rank, i, rank.Spans[i].Name, self)
			}
		}
	}
}

func TestWorkloadsAtTestSize(t *testing.T) {
	dir := t.TempDir()
	runs := map[string][2]*result{}
	for _, name := range workloadNames() {
		u, tr := runSmall(t, name, dir)
		runs[name] = [2]*result{u, tr}
		checkSpans(t, filepath.Join(dir, "trace-"+name+".json"))
	}
	if t.Failed() {
		return
	}

	value := func(workload string, traced int, metric string) float64 {
		return runs[workload][traced].Metrics[metric].Value
	}
	// The decorators forward CodecFabric, so the codec path is really taken.
	if dense, topk := value("tcp-bsp", 0, "wire_bytes_per_step"), value("tcp-bsp-topk", 0, "wire_bytes_per_step"); topk >= dense/10 {
		t.Errorf("tcp-bsp-topk moves %.0f B/step, tcp-bsp %.0f: the codec is not in the path", topk, dense)
	}
	if dense, topk := value("tcp-bsp", 1, "comm.socket_bytes_per_step"), value("tcp-bsp-topk", 1, "comm.socket_bytes_per_step"); topk >= dense/10 {
		t.Errorf("traced tcp-bsp-topk moves %.0f socket B/step, tcp-bsp %.0f: the decorator hides the codec fabric", topk, dense)
	}
	// Loopback has no endpoint, TCP does.
	for _, m := range []string{"comm.send_busy_ms_per_step", "comm.recv_wait_ms_per_step", "comm.frames_per_step"} {
		if v := value("loopback-selsync", 1, m); v != 0 {
			t.Errorf("loopback-selsync %s = %v, want 0", m, v)
		}
		if v := value("tcp-selsync", 1, m); v <= 0 {
			t.Errorf("tcp-selsync %s = %v, want > 0", m, v)
		}
	}
	// The same run on the wire and in shared memory is the same run.
	if a, b := runs["tcp-selsync"][0].Digest, runs["loopback-selsync"][0].Digest; a != b {
		t.Errorf("tcp-selsync digest %s != loopback-selsync digest %s", a, b)
	}
	if v := value("tcp-bsp", 1, "comm.reduce_calls"); v < float64(runs["tcp-bsp"][1].Sizes["steps"]) {
		t.Errorf("tcp-bsp: %v reduce calls in %d steps: BSP reduces every step", v, runs["tcp-bsp"][1].Sizes["steps"])
	}
	if v := value(serveMixedName, 1, "serve.preemptions"); v < 1 {
		t.Errorf("serve-mixed: %v preemptions, want at least one", v)
	}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	mk := func(file string, stepsPerS float64) string {
		res := newResult("tcp-bsp", 1, 1, false)
		for _, m := range endToEnd {
			res.emit(m.name, 10, 1)
		}
		res.emit("steps_per_s", stepsPerS, 1)
		path := filepath.Join(dir, file)
		if err := writeJSON(path, report{Workloads: []workloadReport{{Name: "tcp-bsp", Untraced: res}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := mk("a.json", 100), mk("b.json", 99), mk("c.json", 50)
	if code := compareReports(base, same); code != 0 {
		t.Errorf("1 %% slower: exit %d, want 0", code)
	}
	if code := compareReports(base, slow); code != 1 {
		t.Errorf("50 %% slower: exit %d, want 1", code)
	}
	if code := compareReports(slow, base); code != 0 {
		t.Errorf("twice as fast: exit %d, want 0", code)
	}
}
