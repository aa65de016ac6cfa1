package simnet

import (
	"math"
	"testing"
	"testing/quick"

	"selsync/internal/nn"
)

func TestComputeTimeScalesWithFlops(t *testing.T) {
	d := &Device{Name: "x", FlopsEff: 1e9, Straggle: 1}
	if got := d.ComputeTime(1e9); math.Abs(got-1) > 1e-12 {
		t.Fatalf("1 GFLOP on 1 GFLOP/s: got %v want 1", got)
	}
	if got := d.ComputeTime(0); got != 0 {
		t.Fatalf("zero flops: %v", got)
	}
}

func TestComputeTimeStraggler(t *testing.T) {
	fast := &Device{FlopsEff: 1e9, Straggle: 1}
	slow := &Device{FlopsEff: 1e9, Straggle: 3}
	if got := slow.ComputeTime(1e9) / fast.ComputeTime(1e9); math.Abs(got-3) > 1e-12 {
		t.Fatalf("straggler ratio: %v", got)
	}
	// Straggle below 1 clamps to nominal.
	clamped := &Device{FlopsEff: 1e9, Straggle: 0.5}
	if got := clamped.ComputeTime(1e9); math.Abs(got-1) > 1e-12 {
		t.Fatalf("clamped straggle: %v", got)
	}
}

func TestComputeTimeJitterIsBoundedAndDeterministic(t *testing.T) {
	d1, d2 := NewV100(7), NewV100(7)
	for i := 0; i < 50; i++ {
		t1, t2 := d1.ComputeTime(1e12), d2.ComputeTime(1e12)
		if t1 != t2 {
			t.Fatal("same-seed devices must jitter identically")
		}
		nominal := 1e12 / d1.FlopsEff
		if t1 < nominal*0.8 || t1 > nominal*1.25 {
			t.Fatalf("jitter too wide: %v vs nominal %v", t1, nominal)
		}
	}
}

func TestComputeTimePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewK80(1).ComputeTime(-1)
}

func TestStepFlops(t *testing.T) {
	if got := StepFlops(2e9, 32); got != 64e9 {
		t.Fatalf("StepFlops: %v", got)
	}
}

func TestPSPushIncastGrowsWithWorkers(t *testing.T) {
	n := DefaultNetwork()
	const M = 200e6
	t1 := n.PSPush(M, 1)
	t32 := n.PSPush(M, 32)
	if t32 <= t1 {
		t.Fatalf("incast must grow once the PS tier binds: %v vs %v", t1, t32)
	}
	// At one worker the worker link (5 Gbps) binds: 200 MB → 0.32 s.
	want := M*8/5e9 + n.Latency
	if math.Abs(t1-want) > 1e-9 {
		t.Fatalf("single-worker push: got %v want %v", t1, want)
	}
	// At 16 workers the worker link still binds (16·200 MB over 100 Gbps
	// is only 0.256 s), so the cost equals the single-worker case — the
	// PS tier's headroom is exactly what lets Fig. 1a's ResNet keep
	// scaling to 16.
	if got := n.PSPush(M, 16); math.Abs(got-want) > 1e-9 {
		t.Fatalf("16-worker push: got %v want %v", got, want)
	}
	// At 32 workers the PS tier binds: 32·200 MB over 100 Gbps = 0.512 s.
	want32 := 32*M*8/100e9 + n.Latency
	if math.Abs(t32-want32) > 1e-9 {
		t.Fatalf("32-worker push: got %v want %v", t32, want32)
	}
}

func TestPSSyncIsPushPlusPull(t *testing.T) {
	n := DefaultNetwork()
	if got := n.PSSync(1e6, 4); math.Abs(got-2*n.PSPush(1e6, 4)) > 1e-12 {
		t.Fatalf("PSSync: %v", got)
	}
}

func TestRingAllReduce(t *testing.T) {
	n := DefaultNetwork()
	if got := n.RingAllReduce(1e9, 1); got != 0 {
		t.Fatalf("single worker ring: %v", got)
	}
	// Ring cost approaches 2·M/bw as N grows and beats PS at scale for
	// large models.
	ring := n.RingAllReduce(500e6, 16)
	ps := n.PSSync(500e6, 16)
	if ring >= ps {
		t.Fatalf("ring (%v) should beat PS (%v) at 16 workers on 500 MB", ring, ps)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.RingAllReduce(1, 0)
}

func TestAllGatherBitsMatchesPaperScale(t *testing.T) {
	n := DefaultNetwork()
	got := n.AllGatherBits(16)
	// Paper reports ≈2–4 ms for the flags exchange on 16 workers.
	if got < 2e-3 || got > 4.5e-3 {
		t.Fatalf("flags allgather should be 2–4 ms, got %v", got)
	}
	if n.AllGatherBits(1) != 0 {
		t.Fatal("single worker needs no allgather")
	}
	if n.AllGatherBits(2) >= got {
		t.Fatal("allgather must grow with workers")
	}
}

func TestP2P(t *testing.T) {
	n := DefaultNetwork()
	want := 3e3*8/5e9 + 1e-3
	if got := n.P2P(3e3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("P2P: got %v want %v", got, want)
	}
}

// Property: PS sync time is monotone in both bytes and workers.
func TestQuickPSSyncMonotone(t *testing.T) {
	n := DefaultNetwork()
	f := func(rawB uint32, rawW uint8) bool {
		bytes := float64(rawB%1e6) + 1
		w := int(rawW%30) + 1
		return n.PSSync(bytes, w) <= n.PSSync(bytes*2, w) &&
			n.PSSync(bytes, w) <= n.PSSync(bytes, w+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryModelTransformerOOMAtPaperPoint(t *testing.T) {
	// Paper §II-C: Transformer fails beyond b=64 on the K80's 12 GB.
	spec := nn.TransformerLite().Spec
	k80 := NewK80(1)
	if err := CheckFits(spec, 32, k80); err != nil {
		t.Fatalf("b=32 must fit: %v", err)
	}
	if err := CheckFits(spec, 64, k80); err == nil {
		t.Fatal("b=64 must OOM on the K80")
	}
}

func TestMemoryModelAllZooModelsFitAtTrainingBatch(t *testing.T) {
	// Every paper training configuration must fit its device.
	v100 := NewV100(1)
	cases := map[string]int{"resnet": 32, "vgg": 32, "alexnet": 128, "transformer": 20}
	for name, batch := range cases {
		spec := nn.Zoo()[name].Spec
		if err := CheckFits(spec, batch, v100); err != nil {
			t.Fatalf("%s at b=%d should fit a V100: %v", name, batch, err)
		}
	}
}

func TestMemoryGrowsWithBatch(t *testing.T) {
	spec := nn.Zoo()["resnet"].Spec
	if !(MemoryBytes(spec, 1024) > MemoryBytes(spec, 32)) {
		t.Fatal("memory must grow with batch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MemoryBytes(spec, -1)
}

// TestFig1aShape validates the headline systems shape of Fig. 1a with the
// calibrated defaults: relative throughput at 16 workers is highest for
// ResNet (≈3×) and VGG dips below 1× at 2 workers.
func TestFig1aShape(t *testing.T) {
	net := DefaultNetwork()
	dev := &Device{FlopsEff: 8e11, Straggle: 1} // jitter-free V100
	rel := func(spec nn.ModelSpec, batch, workers int) float64 {
		tc := dev.ComputeTime(StepFlops(spec.FlopsPerSample, batch))
		if workers == 1 {
			return 1
		}
		ts := net.PSSync(spec.WireBytes, workers)
		single := float64(batch) / tc
		cluster := float64(workers*batch) / (tc + ts)
		return cluster / single
	}
	zoo := nn.Zoo()
	resnet16 := rel(zoo["resnet"].Spec, 32, 16)
	vgg2 := rel(zoo["vgg"].Spec, 32, 2)
	vgg16 := rel(zoo["vgg"].Spec, 32, 16)
	if resnet16 < 2.5 || resnet16 > 6 {
		t.Fatalf("ResNet rel throughput at 16 should be ≈3×, got %.2f", resnet16)
	}
	if vgg2 >= 1 {
		t.Fatalf("VGG at 2 workers should be below 1×, got %.2f", vgg2)
	}
	if vgg16 <= vgg2 {
		t.Fatalf("VGG must improve with scale: %.2f vs %.2f", vgg16, vgg2)
	}
	if resnet16 <= vgg16 {
		t.Fatalf("ResNet must out-scale VGG: %.2f vs %.2f", resnet16, vgg16)
	}
}
