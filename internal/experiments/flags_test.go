package experiments

import (
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"

	"selsync/internal/serve"
	"selsync/internal/train"
)

// flagFor binds the run flag table into a fresh RunSpec and returns, for
// every RunSpec field a flag writes, that flag's name (matched by the
// address the flag's Value points at), plus the spec the defaults filled.
func flagFor(t *testing.T) (map[string]string, RunSpec) {
	t.Helper()
	var spec RunSpec
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	BindRunFlags(fs, &spec)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	byAddr := map[uintptr]string{}
	fs.VisitAll(func(f *flag.Flag) {
		if _, dup := byAddr[reflect.ValueOf(f.Value).Pointer()]; dup {
			t.Fatalf("two flags bind the same RunSpec field (second: -%s)", f.Name)
		}
		byAddr[reflect.ValueOf(f.Value).Pointer()] = f.Name
	})
	v := reflect.ValueOf(&spec).Elem()
	names := map[string]string{}
	for i := 0; i < v.NumField(); i++ {
		if name, ok := byAddr[v.Field(i).Addr().Pointer()]; ok {
			names[v.Type().Field(i).Name] = name
		}
	}
	if len(names) != len(byAddr) {
		t.Fatalf("%d flags bind %d RunSpec fields: a flag writes outside the spec", len(byAddr), len(names))
	}
	return names, spec
}

// Every RunSpec knob is a flag; the fabric alone comes from selsync-node's
// -peers / -launch, which pick the transport.
func TestEveryRunSpecFieldHasAFlag(t *testing.T) {
	names, _ := flagFor(t)
	typ := reflect.TypeOf(RunSpec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if _, ok := names[f.Name]; !ok && f.Name != "Fabric" {
			t.Errorf("RunSpec.%s has no flag in BindRunFlags", f.Name)
		}
	}
}

// Every training field a serve job carries has a flag in the table, and a
// spec submitted with C, E and staleness left zero runs at the table's
// defaults: `selsync-ctl submit` and selsync-node mean the same run by the
// same command line.
func TestJobSpecMatchesFlagTable(t *testing.T) {
	names, defaults := flagFor(t)
	service := map[string]bool{"name": true, "tenant": true, "priority": true}
	typ := reflect.TypeOf(serve.JobSpec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if service[tag] {
			continue
		}
		if _, ok := names[f.Name]; !ok {
			t.Errorf("serve.JobSpec field %q (RunSpec.%s) has no flag in BindRunFlags", tag, f.Name)
		}
	}

	got := make(chan serve.JobSpec, 1)
	srv := serve.NewServer(func(spec serve.JobSpec, _ ...train.Option) (serve.BuiltJob, error) {
		got <- spec
		return serve.BuiltJob{}, errors.New("captured")
	}, serve.Options{Slots: 1})
	defer srv.Close()
	if _, err := srv.Submit(serve.JobSpec{Tenant: "t", Model: "resnet", Method: "selsync",
		Workers: 1, TrainN: 1, TestN: 1, MaxSteps: 1}); err != nil {
		t.Fatal(err)
	}
	spec := <-got
	if spec.C != defaults.C || spec.E != defaults.E || spec.Staleness != defaults.Staleness {
		t.Fatalf("serve fills C=%g E=%g staleness=%d; the flag table's defaults are C=%g E=%g staleness=%d",
			spec.C, spec.E, spec.Staleness, defaults.C, defaults.E, defaults.Staleness)
	}
}

// JobSpecFor copies every RunSpec field a JobSpec has and refuses a spec
// that sets any other: a knob the daemon cannot run is never dropped on
// the way to it.
func TestJobSpecForCopiesOrRefuses(t *testing.T) {
	jobType := reflect.TypeOf(serve.JobSpec{})
	typ := reflect.TypeOf(RunSpec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Fabric" {
			continue
		}
		var spec RunSpec
		fv := reflect.ValueOf(&spec).Elem().Field(i)
		switch fv.Kind() {
		case reflect.String:
			fv.SetString("x")
		case reflect.Int:
			fv.SetInt(3)
		case reflect.Uint64:
			fv.SetUint(3)
		case reflect.Float64:
			fv.SetFloat(0.5)
		case reflect.Bool:
			fv.SetBool(true)
		default:
			t.Fatalf("RunSpec.%s: no probe value for kind %s", f.Name, fv.Kind())
		}
		js, err := JobSpecFor(spec)
		_, carried := jobType.FieldByName(f.Name)
		switch {
		case carried && err != nil:
			t.Errorf("RunSpec.%s is a JobSpec field but JobSpecFor refused it: %v", f.Name, err)
		case carried && !reflect.DeepEqual(reflect.ValueOf(js).FieldByName(f.Name).Interface(), fv.Interface()):
			t.Errorf("JobSpecFor does not copy RunSpec.%s", f.Name)
		case !carried && err == nil:
			t.Errorf("JobSpecFor drops RunSpec.%s instead of refusing it", f.Name)
		}
	}
}

// configFlags names, for each train.Config field a command line sets, the
// RunSpec field that feeds it through JobFor; unflagged lists the fields no
// flag reaches, each with the reason. A new Config field fails
// TestConfigFieldsWithoutAFlag until it is in one of the two.
var (
	configFlags = map[string]string{
		"Model":      "Model",
		"Workers":    "Workers",
		"Seed":       "Seed",
		"Train":      "TrainN",
		"Test":       "TestN",
		"Scheme":     "Scheme",
		"NonIID":     "LabelsPerWorker",
		"Codec":      "Codec",
		"Membership": "Membership",
		"Quorum":     "Quorum",
		"MaxSteps":   "MaxSteps",
	}
	unflagged = map[string]string{
		"Batch":           "the workload's calibrated per-worker batch (SetupWorkload)",
		"Opt":             "the workload's optimizer (SetupWorkload)",
		"Schedule":        "the workload's learning-rate schedule, scaled to -steps",
		"Network":         "the default simulated network",
		"Device":          "the default simulated device",
		"Topology":        "the default parameter-server topology; the ablations vary it",
		"Fabric":          "selsync-node's -peers / -launch pick the transport",
		"EvalEvery":       "derived: a tenth of -steps",
		"EvalChunk":       "the loss fold's chunk: every recorded digest is at the default",
		"Patience":        "no early stopping on the command line",
		"TrackDeltas":     "the Fig. 5 series, recorded by its experiment",
		"SnapshotAtSteps": "the Figs. 3 and 11 snapshots, taken by their experiments",
		"TrackerWindow":   "the Δ(g_i) tracker's default window",
		"TrackerAlpha":    "the harness's fixed EWMA weight (BaseConfig)",
	}
)

func TestConfigFieldsWithoutAFlag(t *testing.T) {
	names, _ := flagFor(t)
	typ := reflect.TypeOf(train.Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		_, skip := unflagged[f.Name]
		src, flagged := configFlags[f.Name]
		switch {
		case skip && flagged:
			t.Errorf("train.Config.%s is both flagged and listed as unflagged", f.Name)
		case flagged:
			if _, ok := names[src]; !ok {
				t.Errorf("train.Config.%s: RunSpec.%s has no flag", f.Name, src)
			}
		case !skip:
			t.Errorf("train.Config.%s has no flag: bind it in BindRunFlags, or list it in unflagged with the reason", f.Name)
		}
	}
	for name := range unflagged {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("unflagged lists %s, which train.Config no longer has", name)
		}
	}
}

// -agg is validated in the table itself: a typo is a flag error, not a
// silent ParamAgg run.
func TestAggFlag(t *testing.T) {
	for _, c := range []struct {
		arg  string
		grad bool
		ok   bool
	}{{"param", false, true}, {"grad", true, true}, {"bogus", false, false}, {"", false, false}} {
		var spec RunSpec
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		fs.SetOutput(new(strings.Builder))
		BindRunFlags(fs, &spec)
		err := fs.Parse([]string{"-agg=" + c.arg})
		if (err == nil) != c.ok || spec.GradAgg != c.grad {
			t.Errorf("-agg %q: err=%v GradAgg=%v", c.arg, err, spec.GradAgg)
		}
		if c.ok && fs.Lookup("agg").Value.String() != c.arg {
			t.Errorf("-agg %q prints back as %q", c.arg, fs.Lookup("agg").Value.String())
		}
	}
}
