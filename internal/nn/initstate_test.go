package nn

import (
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
