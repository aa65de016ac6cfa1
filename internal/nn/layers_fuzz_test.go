package nn

import (
	"encoding/binary"
	"math"
	"testing"

	"selsync/internal/tensor"
)

// The LayerNorm and MaxPool2D fuzzers hold the layers' AVX2 kernels to
// their Go bodies — the portable path, and the scalar reference the kernels
// reproduce — bit for bit: a training forward, an evaluation forward (whose
// output must equal the training one's) and the backward pass, on
// fuzzer-chosen shapes and element bit patterns (NaN payloads, ±Inf, ±0,
// ties). A NaN that LayerNorm computes matches any NaN: which payload an
// add or multiply of two NaNs keeps follows its operand order, which the Go
// compiler may commute differently in a fuzzing or race build, so the Go
// body has no fixed payload to match. MaxPool2D only moves elements, and
// its NaNs keep their payloads exactly. On a host without AVX2 both runs
// take the Go bodies.

// fuzzFill writes the bit patterns in data, eight bytes an element, over v
// and repeats them when data is short; no data leaves v zero.
func fuzzFill(v tensor.Vector, data []byte) {
	n := len(data) / 8
	for i := range v {
		if n == 0 {
			v[i] = 0
			continue
		}
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i%n):]))
	}
}

// fuzzBytes encodes vs as fuzzFill reads them.
func fuzzBytes(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// onBothKernelPaths returns run's outputs with the kernels and with the Go
// bodies (tensor.ForcePortable). run must build everything it returns.
func onBothKernelPaths(run func() []tensor.Vector) (kernel, portable []tensor.Vector) {
	kernel = run()
	if restore := tensor.ForcePortable(); restore != nil {
		defer restore()
	}
	return kernel, run()
}

// requireSameBits fails the test at the first element whose bits differ;
// with anyNaN set, a NaN matches any NaN.
func requireSameBits(t *testing.T, what string, got, want tensor.Vector, anyNaN bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(anyNaN && math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %#x (%g), want %#x (%g)", what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// layerFuzzSeeds are the seed corpus' element patterns: plain values,
// specials with distinct NaN payloads, a constant run (zero variance, tied
// windows), and values large enough to overflow a sum.
var layerFuzzSeeds = [][]byte{
	fuzzBytes(0.5, -1.25, 2, 0.75, -0.125, 3.5, -2.5, 1),
	fuzzBytes(1, math.Float64frombits(0x7ff8000000000abc), -2, math.Inf(1), math.Copysign(0, -1), 0,
		math.Float64frombits(0xfff0000000000123), math.Inf(-1), 3, math.Float64frombits(0x7ff8000000000def), 0.25),
	fuzzBytes(1.5, 1.5, 1.5, 1.5, -1.5),
	fuzzBytes(1e300, -1e300, 1e-300, 7),
}

func FuzzLayerNorm(f *testing.F) {
	for _, shape := range [][2]uint8{{15, 127}, {63, 127}, {0, 31}, {4, 2}, {69, 8}, {2, 0}} {
		for _, data := range layerFuzzSeeds {
			f.Add(shape[0], shape[1], data, fuzzBytes(0.3, -0.7, 1.1))
		}
	}
	f.Fuzz(func(t *testing.T, rowsB, colsB uint8, data, grad []byte) {
		rows, cols := 1+int(rowsB)%70, 1+int(colsB)%130
		x, dy := tensor.NewMatrix(rows, cols), tensor.NewMatrix(rows, cols)
		fuzzFill(x.Data, data)
		fuzzFill(dy.Data, grad)
		gain, bias := tensor.NewVector(cols), tensor.NewVector(cols)
		fuzzFill(gain, grad)
		fuzzFill(bias, data[len(data)/2:])
		run := func() []tensor.Vector {
			l := NewLayerNorm("ln", cols)
			NewArena(l.Params())
			l.G.Data.CopyFrom(gain)
			l.B.Data.CopyFrom(bias)
			l.G.Grad.Fill(math.NaN()) // Backward must overwrite them
			l.B.Grad.Fill(math.NaN())
			yEval := l.Forward(x, false).Clone()
			y := l.Forward(x, true).Clone()
			dx := l.Backward(dy)
			return []tensor.Vector{y.Data, yEval.Data, l.xhat.Data, l.invStd, dx.Data, l.G.Grad, l.B.Grad}
		}
		kernel, portable := onBothKernelPaths(run)
		for _, out := range [][]tensor.Vector{kernel, portable} {
			requireSameBits(t, "evaluation y vs training y", out[1], out[0], true)
		}
		for i, name := range []string{"y", "evaluation y", "xhat", "invStd", "dx", "dg", "db"} {
			requireSameBits(t, name, kernel[i], portable[i], true)
		}
	})
}

func FuzzMaxPool2D(f *testing.F) {
	for _, shape := range [][4]uint8{{15, 7, 6, 6}, {63, 7, 6, 6}, {0, 0, 0, 0}, {4, 2, 1, 14}, {69, 1, 7, 7}, {2, 3, 3, 15}} {
		for _, data := range layerFuzzSeeds {
			f.Add(shape[0], shape[1], shape[2], shape[3], data, fuzzBytes(0.3, -0.7, 1.1))
		}
	}
	f.Fuzz(func(t *testing.T, rowsB, chB, hB, wB uint8, data, grad []byte) {
		rows, c, h, w := 1+int(rowsB)%70, 1+int(chB)%8, 2+int(hB)%9, 2+int(wB)%23
		x := tensor.NewMatrix(rows, c*h*w)
		fuzzFill(x.Data, data)
		// A step on the negated input first leaves other winners' gradients
		// in the layer's buffer, which the measured Backward must overwrite.
		neg := x.Clone()
		for i, v := range neg.Data {
			neg.Data[i] = -v
		}
		run := func() []tensor.Vector {
			m := NewMaxPool2D(c, h, w)
			ones := tensor.NewMatrix(rows, m.Forward(neg, true).Cols)
			ones.Data.Fill(1)
			m.Backward(ones)
			yEval := m.Forward(x, false).Clone()
			y := m.Forward(x, true)
			dy := tensor.NewMatrix(rows, y.Cols)
			fuzzFill(dy.Data, grad)
			arg := tensor.NewVector(len(m.argmax))
			for i, a := range m.argmax {
				arg[i] = float64(a)
			}
			dx := m.Backward(dy)
			return []tensor.Vector{y.Data, yEval.Data, arg, dx.Data, maxPoolBackwardRef(m, dy).Data}
		}
		kernel, portable := onBothKernelPaths(run)
		for _, out := range [][]tensor.Vector{kernel, portable} {
			requireSameBits(t, "evaluation y vs training y", out[1], out[0], false)
			requireSameBits(t, "dx vs the scatter-add reference", out[3], out[4], false)
		}
		for i, name := range []string{"y", "evaluation y", "argmax", "dx"} {
			requireSameBits(t, name, kernel[i], portable[i], name == "dx")
		}
	})
}

// maxPoolBackwardRef is MaxPool2D.Backward's former body, the reference its
// clear-and-store pass must equal bit for bit: clear the whole input
// gradient, then add each output gradient at its window's winner.
func maxPoolBackwardRef(m *MaxPool2D, grad *tensor.Matrix) *tensor.Matrix {
	dx := tensor.NewMatrix(grad.Rows, m.inCols)
	for n := 0; n < grad.Rows; n++ {
		dout := grad.Row(n)
		din := dx.Row(n)
		for oi, g := range dout {
			din[m.argmax[n*grad.Cols+oi]] += g
		}
	}
	return dx
}
