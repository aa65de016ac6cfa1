package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// environment is recorded in every report, so that a number can be traced
// to the machine and commit that produced it.
type environment struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The toolchain stamps the commit when it builds inside a git checkout.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+modified"
				}
			}
		}
	}
	return env
}

// report is the suite's output file: the environment and, per workload, the
// untraced and the traced run.
type report struct {
	Env       environment        `json:"environment"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads []workloadReport   `json:"workloads"`
	Gates     []gate             `json:"gates"` // the gates that span runs
	Overhead  map[string]float64 `json:"bench.trace_overhead_pct"`
}

type workloadReport struct {
	Name     string  `json:"name"`
	Untraced *result `json:"untraced"`
	Traced   *result `json:"traced"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runChild runs one workload once in a process of its own, so that set-up
// time and peak memory are that workload's alone, and reads its result back.
func runChild(workload string, seed uint64, seconds float64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join("out", fmt.Sprintf("run-%s-%d.json", workload, trace))
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", tmp)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a failed gate exits non-zero after the result is written
	defer os.Remove(tmp)
	res := &result{}
	if err := readJSON(tmp, res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, err
	}
	return res, nil
}

// runSuite runs every workload untraced, then traced, checks the gates that
// need two runs, prints every metric and writes the report.
func runSuite(seed uint64, seconds float64, out string) int {
	if out == "" {
		out = filepath.Join("out", fmt.Sprintf("bench-seed%d.json", seed))
	}
	rep := report{Env: readEnvironment(), Seed: seed, Seconds: seconds, Overhead: map[string]float64{}}
	fmt.Printf("environment: %+v\n", rep.Env)
	digests := map[string]string{}
	failed := false
	suiteGate := func(name string, ok bool, detail string) {
		rep.Gates = append(rep.Gates, gate{name, ok, detail})
		failed = failed || !ok
	}
	for _, name := range workloadNames() {
		wr := workloadReport{Name: name}
		for trace, dst := range []**result{&wr.Untraced, &wr.Traced} {
			res, err := runChild(name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Printf("\n== %s seed %d trace %d: %v ==\n", name, seed, trace, res.Sizes)
			res.print()
			failed = failed || !res.correct()
			*dst = res
		}
		suiteGate(name+": traced digest == untraced digest", wr.Traced.Digest == wr.Untraced.Digest, wr.Untraced.Digest)
		digests[name] = wr.Untraced.Digest
		// Tracing overhead is the one per-layer number that needs both runs.
		rep.Overhead[name] = 100 * (wr.Untraced.Rate - wr.Traced.Rate) / wr.Untraced.Rate
		rep.Workloads = append(rep.Workloads, wr)
	}
	suiteGate("tcp-selsync digest == loopback-selsync digest",
		digests["tcp-selsync"] == digests["loopback-selsync"], digests["loopback-selsync"])

	fmt.Println()
	for _, g := range rep.Gates {
		fmt.Printf("gate %-60s %v %s\n", g.Name, g.OK, g.Detail)
	}
	for _, name := range workloadNames() {
		fmt.Printf("%-40s %16.6f %%      %s\n", "bench.trace_overhead_pct", rep.Overhead[name], name)
	}
	if err := writeJSON(out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("report:", out)
	if failed {
		return 1
	}
	return 0
}

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	bf := &benchmarkFile{}
	err := readJSON("BENCHMARK.json", bf)
	if os.IsNotExist(err) {
		err = readJSON(filepath.Join("..", "BENCHMARK.json"), bf) // run from bench/
	}
	return bf, err
}

// compareReports prints, for every workload and end-to-end metric, how much
// worse report b is than report a, beside the bound BENCHMARK.json fixes,
// and returns 1 if any difference exceeds its bound. Two reports of the
// same commit and seed must pass in both orders.
func compareReports(a, b string) int {
	bf, err := readBenchmarkFile()
	var ra, rb report
	for _, e := range []error{err, readJSON(a, &ra), readJSON(b, &rb)} {
		if e != nil {
			fmt.Fprintln(os.Stderr, "bench:", e)
			return 2
		}
	}
	byName := map[string]*result{}
	for _, w := range rb.Workloads {
		byName[w.Name] = w.Untraced
	}
	violations := 0
	fmt.Printf("%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", a, b, "worse by", "bound")
	for _, w := range ra.Workloads {
		other := byName[w.Name]
		for _, m := range bf.EndToEnd {
			va, vb := w.Untraced.Metrics[m.Name].Value, 0.0
			if other != nil {
				vb = other.Metrics[m.Name].Value
			}
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if other == nil || worse > m.Bound {
				verdict = "VIOLATION"
				violations++
			}
			fmt.Printf("%-18s %-22s %14.4f %14.4f %+8.1f%% %6.1f%% %s\n", w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if violations > 0 {
		fmt.Printf("%d violations\n", violations)
		return 1
	}
	return 0
}
