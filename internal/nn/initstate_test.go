package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"selsync/internal/tensor"
)

// TestCopiedReplicaEqualsDrawnReplica: for every zoo model, a replica built
// without drawing and filled from a drawn one — arena copy plus layer
// streams, what cluster.New does for every replica past the first — is the
// drawn replica: same parameters, and the same training-mode forward
// outputs step after step, Dropout masks included.
func TestCopiedReplicaEqualsDrawnReplica(t *testing.T) {
	wantStreams := map[string]int{"resnet": 0, "vgg": 0, "alexnet": 1, "transformer": 2}
	for name, f := range Zoo() {
		t.Run(name, func(t *testing.T) {
			src, drawn := f.New(42), f.New(42)
			copied := f.Build(nil)
			if reflect.DeepEqual(copied.Arena().Data, drawn.Arena().Data) {
				t.Fatal("Build(nil) must not draw the initial weights")
			}
			if got := len(drawn.LayerRNG()); got != wantStreams[name] {
				t.Fatalf("model owns %d layer RNG streams, want %d", got, wantStreams[name])
			}

			tensor.CopyAll([]tensor.Vector{copied.Arena().Data}, src.Arena().Data)
			if err := copied.SetLayerRNG(src.LayerRNG()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(copied.Arena().Data, drawn.Arena().Data) {
				t.Fatal("copied parameters differ from drawn parameters")
			}
			if !reflect.DeepEqual(copied.LayerRNG(), drawn.LayerRNG()) {
				t.Fatal("copied layer streams differ from drawn layer streams")
			}

			x, _ := StepBenchBatch(f, tensor.NewRNG(7))
			for step := 0; step < 3; step++ {
				want := drawn.Seq.Forward(x, true)
				got := copied.Seq.Forward(x, true)
				if !reflect.DeepEqual(got.Data, want.Data) {
					t.Fatalf("training forward %d: copied replica's output differs from the drawn replica's", step)
				}
			}
			if !reflect.DeepEqual(copied.LayerRNG(), drawn.LayerRNG()) {
				t.Fatal("layer streams diverged while stepping")
			}
		})
	}
}

// TestSetLayerRNGRejectsWrongCount: stream states captured on a different
// model (or missing from an old checkpoint) are refused, not truncated.
func TestSetLayerRNGRejectsWrongCount(t *testing.T) {
	alex := AlexNetLite(4).New(1)
	if err := alex.SetLayerRNG(nil); err == nil {
		t.Fatal("a model with a Dropout stream must refuse an empty state list")
	}
	if err := ResNetLite(4, 1).New(1).SetLayerRNG([]uint64{1}); err == nil {
		t.Fatal("a model without layer streams must refuse a state")
	}
	if err := alex.SetLayerRNG(alex.LayerRNG()); err != nil {
		t.Fatal(err)
	}
}

// TestZooInitialStateGolden pins every zoo model's drawn initial state —
// the arena's bits and the layer-owned streams of New(42) — plus the
// benchmark's 100-class ResNetLite. A reordered or re-scaled draw fails
// here by name instead of as a training-digest mismatch downstream.
func TestZooInitialStateGolden(t *testing.T) {
	want := map[string]string{
		"resnet":      "85cc0ceb4a1f009a02ba485f228452c7a4a57892023418c99098b236d116e746",
		"vgg":         "d027227055f87b1875885382d428840e53371322bd4b6609a97d01483d00aca2",
		"alexnet":     "6278ea9aa166e9f24e5ae8534fb261893e0adc9d024df54f6cd7c6fdc6a1ba97",
		"transformer": "7a472dcc831c1b11a1bf2c55322d143308ca7e159d74833da1fdfb6085abb41c",
		"resnet-c100": "af5a775325412b5207f1122341be37850fe003363414335a8cbc13551d7ed6f5",
	}
	models := Zoo()
	models["resnet-c100"] = ResNetLite(100, 6)
	for name, f := range models {
		net := f.New(42)
		h := sha256.New()
		var w [8]byte
		for _, v := range net.Arena().Data {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			h.Write(w[:])
		}
		for _, s := range net.LayerRNG() {
			binary.LittleEndian.PutUint64(w[:], s)
			h.Write(w[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: initial state digest %s, want %s", name, got, want[name])
		}
	}
}
