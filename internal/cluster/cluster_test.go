package cluster

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"selsync/internal/comm"
	"selsync/internal/nn"
	"selsync/internal/opt"
	"selsync/internal/simnet"
	"selsync/internal/tensor"
)

func testConfig(workers int) Config {
	return Config{
		Workers: workers,
		Model:   nn.VGGLite(4),
		Opt: func(ps []*nn.Param) opt.Optimizer {
			return opt.NewSGD(ps, 0.9, 0)
		},
		Seed: 42,
	}
}

func randBatch(seed uint64, n, classes int) (*tensor.Matrix, []int) {
	rng := tensor.NewRNG(seed)
	x := tensor.NewMatrix(n, nn.ImgFeatures)
	rng.NormVector(x.Data, 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

func TestNewClusterReplicasIdentical(t *testing.T) {
	c := New(testConfig(4))
	if c.N() != 4 {
		t.Fatalf("N: %d", c.N())
	}
	if !c.ConsistentReplicas() {
		t.Fatal("fresh replicas must be identical")
	}
	// PS global must equal replica state.
	flat := c.Workers[0].FlatParams()
	for i := range flat {
		if c.PS.Global[i] != flat[i] {
			t.Fatal("PS global must snapshot replica init")
		}
	}
}

func TestAggregateParamsRestoresConsistency(t *testing.T) {
	c := New(testConfig(3))
	// Diverge the replicas with different local steps.
	c.Each(func(w *Worker) {
		x, labels := randBatch(uint64(w.ID)+100, 8, 4)
		w.Model.ComputeGradients(x, labels)
		w.Optimizer.Step(0.1)
	})
	if c.ConsistentReplicas() {
		t.Fatal("distinct batches should diverge replicas")
	}
	c.AggregateParams()
	if !c.ConsistentReplicas() {
		t.Fatal("parameter aggregation must restore consistency")
	}
	if d := maxParamDivergence(c); d > 1e-12 {
		t.Fatalf("replicas must match PS after PA: %v", d)
	}
}

// maxParamDivergence returns the largest L2 distance between any hosted
// replica and the PS global state.
func maxParamDivergence(c *Cluster) float64 {
	var worst float64
	for _, w := range c.Workers {
		d := w.FlatParams().Clone()
		d.Sub(c.PS.Global)
		worst = math.Max(worst, d.Norm())
	}
	return worst
}

func TestAggregateGradsLeavesDivergence(t *testing.T) {
	c := New(testConfig(3))
	// Diverge replicas first.
	c.Each(func(w *Worker) {
		x, labels := randBatch(uint64(w.ID)+200, 8, 4)
		w.Model.ComputeGradients(x, labels)
		w.Optimizer.Step(0.1)
	})
	// One GA round: average gradients, apply locally.
	c.Each(func(w *Worker) {
		x, labels := randBatch(uint64(w.ID)+300, 8, 4)
		w.Model.ComputeGradients(x, labels)
	})
	avg := tensor.NewVector(c.Dim())
	c.AggregateGrads(avg)
	c.Each(func(w *Worker) {
		w.SetGrads(avg)
		w.Optimizer.Step(0.1)
	})
	if c.ConsistentReplicas() {
		t.Fatal("gradient aggregation must not reconcile diverged replicas")
	}
}

func TestAggregateGradsIsMean(t *testing.T) {
	c := New(testConfig(2))
	g0 := tensor.NewVector(c.Dim())
	g1 := tensor.NewVector(c.Dim())
	for i := range g0 {
		g0[i] = 1
		g1[i] = 3
	}
	c.Workers[0].SetGrads(g0)
	c.Workers[1].SetGrads(g1)
	avg := tensor.NewVector(c.Dim())
	c.AggregateGrads(avg)
	for i := range avg {
		if avg[i] != 2 {
			t.Fatalf("mean gradient wrong at %d: %v", i, avg[i])
		}
	}
	if st := c.Fabric().Stats(); st.Pushes != 2 || st.Pulls != 2 {
		t.Fatalf("traffic counts: push=%d pull=%d", st.Pushes, st.Pulls)
	}
	wantBytes := 2 * comm.TensorWireBytes(c.Dim())
	if c.PS.BytesRecv() != wantBytes || c.PS.BytesSent() != wantBytes {
		t.Fatalf("traffic bytes: recv=%d sent=%d want %d", c.PS.BytesRecv(), c.PS.BytesSent(), wantBytes)
	}
}

func TestBroadcastSetsAllReplicas(t *testing.T) {
	c := New(testConfig(3))
	for i := range c.PS.Global {
		c.PS.Global[i] = float64(i % 7)
	}
	c.Broadcast()
	for _, w := range c.Workers {
		flat := w.FlatParams()
		for i := range flat {
			if flat[i] != c.PS.Global[i] {
				t.Fatal("broadcast mismatch")
			}
		}
	}
}

func TestBarrierAndClocks(t *testing.T) {
	c := New(testConfig(3))
	c.Workers[0].Clock = 1
	c.Workers[1].Clock = 5
	c.Workers[2].Clock = 3
	if m, err := c.MaxClock(); err != nil || m != 5 {
		t.Fatalf("MaxClock: %v (err %v)", m, err)
	}
	c.Barrier(0.5)
	for _, w := range c.Workers {
		if w.Clock != 5.5 {
			t.Fatalf("worker %d clock %v want 5.5", w.ID, w.Clock)
		}
	}
}

func TestSyncAndFlagsCosts(t *testing.T) {
	c := New(testConfig(16))
	if got, want := c.SyncCost(), c.Network.PSSync(c.Spec.WireBytes, 16); got != want {
		t.Fatalf("SyncCost: %v want %v", got, want)
	}
	if got := c.FlagsCost(); got < 2e-3 || got > 4.5e-3 {
		t.Fatalf("FlagsCost outside the paper's 2–4 ms: %v", got)
	}
	if c.SyncCost() < 100*c.FlagsCost() {
		t.Fatal("flags exchange must be orders of magnitude cheaper than a full sync")
	}
}

func TestWorkerLSSR(t *testing.T) {
	w := &Worker{}
	if w.LSSR() != 0 {
		t.Fatal("LSSR with no steps must be 0")
	}
	w.LocalSteps, w.SyncSteps = 9, 1
	if math.Abs(w.LSSR()-0.9) > 1e-12 {
		t.Fatalf("LSSR: %v", w.LSSR())
	}
	w.LocalSteps, w.SyncSteps = 0, 5
	if w.LSSR() != 0 {
		t.Fatal("all-sync LSSR must be 0 (BSP)")
	}
}

func TestEachRunsAllWorkersConcurrently(t *testing.T) {
	c := New(testConfig(8))
	hits := make([]bool, 8)
	c.Each(func(w *Worker) { hits[w.ID] = true })
	for id, ok := range hits {
		if !ok {
			t.Fatalf("worker %d not visited", id)
		}
	}
}

func TestCustomDeviceBuilder(t *testing.T) {
	cfg := testConfig(2)
	cfg.Device = func(id int) *simnet.Device {
		d := simnet.NewV100(uint64(id))
		if id == 1 {
			d.Straggle = 4
		}
		return d
	}
	c := New(cfg)
	if c.Workers[1].Device.Straggle != 4 {
		t.Fatal("device builder not honored")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 0, Model: nn.VGGLite(4), Opt: testConfig(1).Opt},
		{Workers: 2, Model: nn.VGGLite(4)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			New(cfg)
		}()
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() tensor.Vector {
		c := New(testConfig(4))
		for step := 0; step < 3; step++ {
			c.Each(func(w *Worker) {
				x, labels := randBatch(uint64(w.ID*10+step), 8, 4)
				w.Model.ComputeGradients(x, labels)
			})
			avg := tensor.NewVector(c.Dim())
			c.AggregateGrads(avg)
			c.Each(func(w *Worker) {
				w.SetGrads(avg)
				w.Optimizer.Step(0.05)
			})
		}
		return c.Workers[0].FlatParams().Clone()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training must be bit-deterministic across runs")
		}
	}
}

func TestEachReusesPersistentPool(t *testing.T) {
	c := New(testConfig(4))
	defer c.Close()
	var mu sync.Mutex
	counts := make(map[int]int)
	for i := 0; i < 50; i++ {
		c.Each(func(w *Worker) {
			mu.Lock()
			counts[w.ID]++
			mu.Unlock()
		})
	}
	for id := 0; id < 4; id++ {
		if counts[id] != 50 {
			t.Fatalf("worker %d ran %d of 50 steps", id, counts[id])
		}
	}
	c.Close() // idempotent stop
}

// meshClusters builds one cluster per rank over in-process channel
// endpoints, so multi-process aggregation runs inside one test binary.
func meshClusters(t *testing.T, workers, procs int, seed uint64) ([]*Cluster, func()) {
	t.Helper()
	cfg := testConfig(workers)
	cfg.Seed = seed
	return meshClustersOf(t, procs, cfg)
}

// meshClustersOf is meshClusters over an arbitrary base config.
func meshClustersOf(t *testing.T, procs int, base Config) ([]*Cluster, func()) {
	t.Helper()
	workers := base.Workers
	eps := comm.NewLoopbackEndpoints(procs)
	cls := make([]*Cluster, procs)
	var wg sync.WaitGroup
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m, err := comm.NewMesh(eps[r], workers)
			if err != nil {
				t.Error(err)
				return
			}
			cfg := base
			cfg.Fabric = m
			cls[r] = New(cfg)
		}(r)
	}
	wg.Wait()
	cleanup := func() {
		for r, c := range cls {
			if c != nil {
				c.Close()
			}
			eps[r].Close()
		}
	}
	for _, c := range cls {
		if c == nil {
			cleanup()
			t.Fatal("mesh cluster construction failed")
		}
	}
	return cls, cleanup
}

// eachRank runs fn concurrently on every rank's cluster — the SPMD shape
// of a multi-process run.
func eachRank(cls []*Cluster, fn func(c *Cluster)) {
	var wg sync.WaitGroup
	for _, c := range cls {
		wg.Add(1)
		go func(c *Cluster) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

func TestMeshClusterMatchesLoopbackBitwise(t *testing.T) {
	const workers = 4
	lb := New(testConfig(workers))
	defer lb.Close()

	step := func(c *Cluster, round int) {
		c.Each(func(w *Worker) {
			x, labels := randBatch(uint64(w.ID*10+round), 8, 4)
			w.Model.ComputeGradients(x, labels)
			w.Optimizer.Step(0.1)
		})
		c.AggregateParams()
	}
	for round := 0; round < 3; round++ {
		step(lb, round)
	}

	for _, procs := range []int{2, 4} {
		cls, cleanup := meshClusters(t, workers, procs, 42)
		eachRank(cls, func(c *Cluster) {
			for round := 0; round < 3; round++ {
				step(c, round)
			}
		})
		for r, c := range cls {
			for i, x := range c.PS.Global {
				if x != lb.PS.Global[i] {
					cleanup()
					t.Fatalf("procs=%d rank %d: global[%d] diverged from loopback", procs, r, i)
				}
			}
			st, lst := c.Fabric().Stats(), lb.Fabric().Stats()
			if st.Pushes != lst.Pushes || st.Pulls != lst.Pulls ||
				c.PS.BytesRecv() != lb.PS.BytesRecv() || c.PS.BytesSent() != lb.PS.BytesSent() {
				cleanup()
				t.Fatalf("procs=%d rank %d: traffic ledger diverged: push=%d/%d pull=%d/%d",
					procs, r, st.Pushes, lst.Pushes, st.Pulls, lst.Pulls)
			}
		}
		cleanup()
	}
}

func TestMeshClusterFlagsAndBarrier(t *testing.T) {
	cls, cleanup := meshClusters(t, 4, 2, 7)
	defer cleanup()
	eachRank(cls, func(c *Cluster) {
		flags := make([]bool, c.N())
		for _, w := range c.Workers {
			flags[w.ID] = w.ID == 3 // only worker 3 votes
		}
		any, err := c.ExchangeFlags(flags)
		if err != nil {
			t.Errorf("ExchangeFlags: %v", err)
			return
		}
		if !any {
			t.Error("vote lost in allgather")
			return
		}
		for id, f := range flags {
			if f != (id == 3) {
				t.Errorf("flag %d = %v", id, f)
			}
		}
		for _, w := range c.Workers {
			w.Clock = float64(w.ID)
		}
		c.Barrier(0.5)
		for _, w := range c.Workers {
			if w.Clock != 3.5 {
				t.Errorf("worker %d clock %v want 3.5", w.ID, w.Clock)
			}
		}
	})
}

// TestReplicasCopyTheFirstReplicasInitialState: on a model with a
// layer-owned stream, every hosted replica — on loopback and on each mesh
// rank — starts with exactly the state a standalone seeded draw produces,
// parameters and Dropout stream alike, although only the first one drew.
func TestReplicasCopyTheFirstReplicasInitialState(t *testing.T) {
	cfg := testConfig(4)
	cfg.Model = nn.AlexNetLite(4)
	want := cfg.Model.New(cfg.Seed)
	check := func(c *Cluster) {
		for _, w := range c.Workers {
			if !reflect.DeepEqual(w.FlatParams(), want.Arena().Data) {
				t.Errorf("rank %d worker %d: initial parameters differ from the seeded draw", c.Rank(), w.ID)
			}
			if got := w.LayerRNG(); len(got) != 1 || !reflect.DeepEqual(got, want.LayerRNG()) {
				t.Errorf("rank %d worker %d: layer streams %v, want %v", c.Rank(), w.ID, got, want.LayerRNG())
			}
		}
		if !reflect.DeepEqual(c.PS.Global, want.Arena().Data) {
			t.Errorf("rank %d: PS global differs from the seeded draw", c.Rank())
		}
	}
	lb := New(cfg)
	defer lb.Close()
	check(lb)
	cls, cleanup := meshClustersOf(t, 2, cfg)
	defer cleanup()
	for _, c := range cls {
		check(c)
	}
}

// TestAdoptedReplicaCarriesReferenceLayerStreams: a replica materialized
// mid-run by AdoptWorkers is built without drawing and takes worker 0's
// layer streams as they stand — not the initial ones — next to the PS
// global parameters and worker 0's step counters.
func TestAdoptedReplicaCarriesReferenceLayerStreams(t *testing.T) {
	cfg := testConfig(4)
	cfg.Model = nn.AlexNetLite(4)
	cls, cleanup := meshClustersOf(t, 2, cfg)
	defer cleanup()
	c := cls[0]
	initial := c.Workers[0].LayerRNG()
	c.Each(func(w *Worker) {
		x, labels := randBatch(300, 8, 4)
		w.Model.ComputeGradients(x, labels) // a training forward advances the Dropout stream
		w.Steps++
	})
	ref := c.Workers[0]
	if reflect.DeepEqual(ref.LayerRNG(), initial) {
		t.Fatal("test needs worker 0's Dropout stream to have advanced")
	}

	c.AdoptWorkers([]int{2, 3}, 1)
	for _, id := range []int{2, 3} {
		w := c.workerByID(id)
		if w == nil {
			t.Fatalf("worker %d was not adopted", id)
		}
		if !reflect.DeepEqual(w.LayerRNG(), ref.LayerRNG()) {
			t.Fatalf("adopted worker %d layer streams %v, want worker 0's %v", id, w.LayerRNG(), ref.LayerRNG())
		}
		if !reflect.DeepEqual(w.FlatParams(), c.PS.Global) {
			t.Fatalf("adopted worker %d parameters differ from the PS global state", id)
		}
		if w.Steps != ref.Steps {
			t.Fatalf("adopted worker %d steps %d, want %d", id, w.Steps, ref.Steps)
		}
	}
}

// startKernelHelpers makes tensor start its process-lifetime fan-out helper
// goroutines now, so that a goroutine count taken afterwards includes them.
func startKernelHelpers() {
	tensor.NewRNG(1).NormVector(tensor.NewVector(1<<20), 0, 1)
}

// waitGoroutines fails the test unless the process gets back down to base
// goroutines within a few seconds.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines left, %d before\n%s", what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentBuildLeavesNoGoroutineBehind: New builds its replicas on
// goroutines of their own; once it has returned and the cluster is closed,
// none is left, and the replicas hold the one drawn initial state.
func TestConcurrentBuildLeavesNoGoroutineBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	startKernelHelpers()
	base := runtime.NumGoroutine()
	cfg := testConfig(6)
	c := New(cfg)
	want := cfg.Model.New(cfg.Seed).Arena().Data
	for _, w := range c.Workers {
		if !reflect.DeepEqual(w.FlatParams(), want) {
			t.Fatalf("worker %d does not hold the model drawn from the seed", w.ID)
		}
	}
	c.Close()
	waitGoroutines(t, base, "after New and Close")
}

// TestConcurrentBuildPanicReachesCaller: a replica build that panics on a
// helper goroutine panics New on the caller's, with the build's value.
func TestConcurrentBuildPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	startKernelHelpers()
	base := runtime.NumGoroutine()
	cfg := testConfig(4)
	build := cfg.Model.Build
	cfg.Model.Build = func(rng *tensor.RNG) *nn.FeedForwardNet {
		if rng == nil {
			panic("undrawn replica refused")
		}
		return build(rng)
	}
	func() {
		defer func() {
			if p := recover(); p != "undrawn replica refused" {
				t.Fatalf("New panicked with %v, want the build's panic", p)
			}
		}()
		New(cfg)
	}()
	waitGoroutines(t, base, "after a panicking build")
}
