package nn

import (
	"testing"

	"selsync/internal/tensor"
)

func benchStep(b *testing.B, name string) {
	f := Zoo()[name]
	net := f.New(1)
	x, labels := StepBenchBatch(f, tensor.NewRNG(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ComputeGradients(x, labels)
	}
}

func BenchmarkResNetLiteStep(b *testing.B)      { benchStep(b, "resnet") }
func BenchmarkVGGLiteStep(b *testing.B)         { benchStep(b, "vgg") }
func BenchmarkAlexNetLiteStep(b *testing.B)     { benchStep(b, "alexnet") }
func BenchmarkTransformerLiteStep(b *testing.B) { benchStep(b, "transformer") }

// identity is a Residual's inner layer that costs nothing, so
// BenchmarkResidual times the skip connection alone.
type identity struct{}

func (identity) Forward(x *tensor.Matrix, train bool) *tensor.Matrix { return x }
func (identity) Backward(grad *tensor.Matrix) *tensor.Matrix         { return grad }
func (identity) Params() []*Param                                    { return nil }

// benchLayer times one layer at the c100 workload's shapes: a training
// forward and its backward on the 16-row batch, and an evaluation forward
// on a 64-row block. inCols is the layer's input width.
func benchLayer(b *testing.B, l Layer, inCols int) {
	rng := tensor.NewRNG(5)
	batch := func(rows int) *tensor.Matrix {
		m := tensor.NewMatrix(rows, inCols)
		rng.NormVector(m.Data, 0, 1)
		return m
	}
	x, xEval := batch(16), batch(64)
	dy := l.Forward(x, true).Clone()
	rng.NormVector(dy.Data, 0, 1)
	run := func(name string, f func()) {
		b.Run(name, func(b *testing.B) {
			f()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f()
			}
		})
	}
	run("forward-16", func() { l.Forward(x, true) })
	run("backward-16", func() { l.Backward(dy) })
	run("eval-64", func() { l.Forward(xEval, false) })
}

func BenchmarkLayerNorm(b *testing.B) {
	benchLayer(b, bind(tensor.NewRNG(1), NewLayerNorm("ln", 128)), 128)
}

func BenchmarkMaxPool2D(b *testing.B) {
	benchLayer(b, NewMaxPool2D(8, ImgSize, ImgSize), 8*ImgSize*ImgSize)
}

func BenchmarkResidual(b *testing.B) { benchLayer(b, NewResidual(identity{}), 128) }
