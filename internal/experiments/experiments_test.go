package experiments

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig4", "fig5",
		"fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12", "table1",
		"ablation-topology", "ablation-straggler", "switch", "compression",
		"serve-load",
		"scenario-crash", "scenario-partition", "scenario-flaky",
		"scenario-straggler", "scenario-churn",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Fatalf("missing experiment %q", id)
		}
	}
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("nope", Tiny, io.Discard); err == nil {
		t.Fatal("unknown id must error")
	}
}

// Every registered failure scenario must pass at Tiny scale — these runners
// carry their own pass/fail assertions, so running them IS the test.
func TestScenarioSuitePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	for _, id := range []string{
		"scenario-crash", "scenario-partition", "scenario-flaky", "scenario-straggler",
		"scenario-churn",
	} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := Run(id, Tiny, &buf); err != nil {
				t.Fatalf("%v\nreport so far:\n%s", err, buf.String())
			}
			if !strings.Contains(buf.String(), "PASS") {
				t.Fatalf("runner printed no PASS line:\n%s", buf.String())
			}
		})
	}
}

func TestScaleStringsAndParams(t *testing.T) {
	for _, s := range []Scale{Tiny, Quick, Full} {
		if s.String() == "" {
			t.Fatal("scale must print")
		}
		p := ParamsFor(s)
		if p.Workers <= 0 || p.TrainN <= 0 || p.MaxSteps <= 0 {
			t.Fatalf("bad params for %v: %+v", s, p)
		}
	}
	if ParamsFor(Tiny).Workers >= ParamsFor(Full).Workers {
		t.Fatal("Full must use more workers than Tiny")
	}
}

func TestSetupWorkloadsComplete(t *testing.T) {
	p := ParamsFor(Tiny)
	for _, name := range AllWorkloads() {
		wl := SetupWorkload(name, p, 1)
		if wl.Factory.Build == nil || wl.Opt == nil || wl.Schedule == nil {
			t.Fatalf("%s: incomplete workload", name)
		}
		if wl.Data.Train.N() != p.TrainN || wl.Data.Test.N() != p.TestN {
			t.Fatalf("%s: dataset sizes wrong", name)
		}
		if !(wl.DeltaLow < wl.DeltaMid && wl.DeltaMid < wl.DeltaHigh) {
			t.Fatalf("%s: delta thresholds must be ordered: %v %v %v",
				name, wl.DeltaLow, wl.DeltaMid, wl.DeltaHigh)
		}
		if wl.Batch <= 0 {
			t.Fatalf("%s: bad batch", name)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown workload must panic")
			}
		}()
		SetupWorkload("nope", p, 1)
	}()
}

func TestFig1aShape(t *testing.T) {
	var buf bytes.Buffer
	fig := Fig1a(Tiny, &buf)
	if len(fig.Series) != 4 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
		if s.Y[0] != 1 {
			t.Fatalf("%s: relative throughput at 1 worker must be 1, got %v", s.Name, s.Y[0])
		}
	}
	resnet := byName["ResNetLite(c=10)"]
	vgg := byName["VGGLite(c=100)"]
	last := len(resnet.Y) - 1
	if resnet.Y[last] <= vgg.Y[last] {
		t.Fatalf("ResNet must out-scale VGG at 16 workers: %v vs %v", resnet.Y[last], vgg.Y[last])
	}
	if vgg.Y[1] >= 1 {
		t.Fatalf("VGG at 2 workers must dip below 1×, got %v", vgg.Y[1])
	}
	if !strings.Contains(buf.String(), "Fig 1a") {
		t.Fatal("report must be printed")
	}
}

func TestFig2aMonotoneInBatch(t *testing.T) {
	fig := Fig2a(Tiny, io.Discard)
	for _, s := range fig.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("%s: compute time must grow with batch", s.Name)
			}
		}
	}
}

func TestFig2bTransformerOOM(t *testing.T) {
	var buf bytes.Buffer
	tab := Fig2b(Tiny, &buf)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	out := buf.String()
	if !strings.Contains(out, "OOM") {
		t.Fatal("Fig 2b must mark at least one OOM configuration")
	}
	// The Transformer row specifically must OOM (paper: beyond b=32).
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "TransformerLite") {
			joined := strings.Join(row[1:], " ")
			if !strings.Contains(joined, "OOM") {
				t.Fatal("Transformer must OOM somewhere in the sweep")
			}
		}
	}
}

func TestFig8aOverheadGrowsWithWindow(t *testing.T) {
	tab := Fig8a(Tiny, io.Discard)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 5 {
			t.Fatalf("row width: %v", row)
		}
	}
}

func TestFig8bSelDPCostsMore(t *testing.T) {
	tab := Fig8b(Tiny, io.Discard)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// SelDP materializes N× the indices, so its one-time cost should
	// exceed DefDP's on every dataset (column 3 is the ratio).
	for _, row := range tab.Rows {
		if !strings.HasPrefix(row[3], "0.") {
			continue // ratio ≥ 1 — fine
		}
		t.Logf("note: SelDP faster than DefDP on %s (timing noise)", row[0])
	}
}

func TestFig11ProducesDensitiesAndDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	var buf bytes.Buffer
	fig, dist := Fig11(Tiny, &buf)
	if len(fig.Series) != 6 { // 3 regimes × 2 checkpoints
		t.Fatalf("series: %d", len(fig.Series))
	}
	if len(dist.Rows) != 2 {
		t.Fatalf("distance rows: %d", len(dist.Rows))
	}
	out := buf.String()
	if !strings.Contains(out, "Fig 11") {
		t.Fatal("report must be printed")
	}
}

func TestSwitchCompareShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	var buf bytes.Buffer
	fig, tab := SwitchCompare(Tiny, &buf)
	if len(fig.Series) != 6 { // 2 models × {bsp, selsync, bsp→selsync}
		t.Fatalf("series: %d", len(fig.Series))
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Row layout per model: bsp, selsync, bsp→selsync. BSP never takes a
	// local step; the hybrid must mix sync (≥ the warmup quarter) with
	// local steps — the switch visibly changed behavior at its boundary.
	warmup := ParamsFor(Tiny).MaxSteps / 4
	for m := 0; m < 2; m++ {
		bsp, hybrid := tab.Rows[3*m], tab.Rows[3*m+2]
		if bsp[4] != "0" {
			t.Fatalf("%s: BSP must have 0 local steps, row %v", bsp[0], bsp)
		}
		if hybrid[1] != "bsp→selsync" {
			t.Fatalf("row order wrong: %v", hybrid)
		}
		sync, local := atoiCell(t, hybrid[3]), atoiCell(t, hybrid[4])
		if sync < warmup {
			t.Fatalf("%s hybrid: warmup alone gives ≥ %d sync steps, got %d", hybrid[0], warmup, sync)
		}
		if local == 0 {
			t.Fatalf("%s hybrid: the SelSync phase should produce local steps, row %v", hybrid[0], hybrid)
		}
	}
	if !strings.Contains(buf.String(), "Switch") {
		t.Fatal("report must be printed")
	}
}

func atoiCell(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("cell %q is not an integer", s)
	}
	return n
}

func TestPolicyForSchedules(t *testing.T) {
	p := ParamsFor(Tiny)
	wl := SetupWorkload("vgg", p, 1)
	for spec, wantName := range map[string]string{
		"bsp":             "BSP",
		"local":           "LocalSGD",
		"selsync":         "SelSync(δ=0.055,ParamAgg)", // DeltaLow default
		"bsp:200,selsync": "Schedule(BSP:200→SelSync(δ=0.055,ParamAgg))",
	} {
		policy, err := PolicyFor(RunSpec{Method: spec}, wl)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if policy.Name() != wantName {
			t.Fatalf("%q: policy %q, want %q", spec, policy.Name(), wantName)
		}
	}
	for _, spec := range []string{"nope", "bsp:200,ssp", "bsp,selsync"} {
		if _, err := PolicyFor(RunSpec{Method: spec}, wl); err == nil {
			t.Fatalf("%q must fail", spec)
		}
	}
}

func TestTableAndFigureRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if !strings.Contains(buf.String(), "== T ==") || !strings.Contains(buf.String(), "bb") {
		t.Fatalf("table render: %q", buf.String())
	}
	fig := &Figure{Title: "F", XLabel: "x", YLabel: "y"}
	fig.Add("s", []float64{1, 2}, []float64{3, 4})
	buf.Reset()
	fig.Fprint(&buf)
	if !strings.Contains(buf.String(), "(1, 3)") {
		t.Fatalf("figure render: %q", buf.String())
	}
}

func TestSubsample(t *testing.T) {
	if got := subsample(0, 5); got != nil {
		t.Fatal("empty subsample must be nil")
	}
	got := subsample(3, 10)
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("small subsample: %v", got)
	}
	got = subsample(100, 10)
	if len(got) != 10 || got[0] != 0 || got[9] != 99 {
		t.Fatalf("large subsample: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("subsample must be increasing: %v", got)
		}
	}
}

// TestServeLoadTiny floods the serve daemon with a small seeded job mix;
// the acceptance assertions (zero lost/duplicated, all jobs complete,
// fair-share error ≤ 10% when sampled) live inside ServeLoad and panic
// on violation. The quick-scale ≥200-job acceptance run happens in CI
// (serve-smoke) via selsync-bench.
func TestServeLoadTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	var buf bytes.Buffer
	tab := ServeLoad(Tiny, &buf)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	row := tab.Rows[0]
	if row[0] != "64" || row[1] != "64" {
		t.Fatalf("expected 64 submitted and done, got %v", row)
	}
	if row[3] != "0" || row[4] != "0" {
		t.Fatalf("lost/dup must be zero, got %v", row)
	}
	if !strings.Contains(buf.String(), "Per-tenant fair shares") {
		t.Fatal("per-tenant table must be printed")
	}
}

func TestBoolCell(t *testing.T) {
	if boolCell(true) != "yes" || boolCell(false) != "no" {
		t.Fatal("boolCell wrong")
	}
}

// TestCompressionShape runs the wire-efficiency experiment at Tiny scale
// and asserts the acceptance bar numerically: every lossless row is
// bit-identical to the dense fast path, top-k 1% moves at least 4x fewer
// bytes than dense, and the lossy rows' accuracy drift stays bounded.
func TestCompressionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	var buf bytes.Buffer
	tab := Compression(Tiny, &buf)
	if len(tab.Rows) != 7 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	reductions := make(map[string]float64)
	for _, row := range tab.Rows {
		label, red, packedMB, extra, drift, match := row[0], row[2], row[3], row[4], row[6], row[7]
		f, err := strconv.ParseFloat(strings.TrimSuffix(red, "x"), 64)
		if err != nil {
			t.Fatalf("%s: reduction cell %q not a factor", label, red)
		}
		reductions[label] = f
		switch label {
		case "dense":
			// The dense fast path never enters the codec encoder, so it has
			// no packed-bytes measurement.
			if packedMB != "-" || extra != "-" {
				t.Fatalf("dense row must have no packed cells, got %q/%q", packedMB, extra)
			}
		case "none":
		default:
			d, err := strconv.ParseFloat(drift, 64)
			if err != nil || d > 6 {
				t.Fatalf("%s: drift %q out of bounds", label, drift)
			}
		}
		switch label {
		case "dense", "none":
			if match != "yes" {
				t.Fatalf("%s must be bit-identical to dense, got %q", label, match)
			}
		}
		// The bit-packed index stream must beat the ledger's canonical
		// 12-byte entries on every top-k row.
		if strings.HasPrefix(label, "topk:") {
			e, err := strconv.ParseFloat(strings.TrimSuffix(extra, "x"), 64)
			if err != nil || e <= 1 {
				t.Fatalf("%s: packed extra reduction %q must exceed 1x", label, extra)
			}
		}
	}
	if reductions["topk:0.01"] < 4 {
		t.Fatalf("topk:0.01 reduction %.2fx < 4x", reductions["topk:0.01"])
	}
	if reductions["q8"] < 4 {
		t.Fatalf("q8 reduction %.2fx < 4x", reductions["q8"])
	}
	if !strings.Contains(buf.String(), "Wire efficiency") {
		t.Fatal("report must be printed")
	}
}
