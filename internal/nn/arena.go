package nn

import "selsync/internal/tensor"

// Arena is a pair of contiguous per-replica buffers holding every
// parameter value and every gradient of one model, in Params() order. Each
// Param's Data/Grad is a window of it, so the whole replica can be read or
// overwritten as one flat tensor.Vector without any per-layer copying:
// flattening becomes returning Data, and a full parameter broadcast is a
// single SIMD CopyFrom. This is the contiguous "gradient bucket" layout
// real parameter servers ship around, applied to the replica itself.
type Arena struct {
	Data tensor.Vector // all parameter values, in Params() order
	Grad tensor.Vector // all gradients, same layout
}

// Dim returns the flat parameter dimension.
func (a *Arena) Dim() int { return len(a.Data) }

// NewArena allocates one zeroed arena sized by the lengths ps declare and
// points each Param's Data/Grad at its window, in order; it copies nothing.
// The windows keep the arena's remaining capacity, which lets ArenaView
// re-derive the full flat vector from the first parameter.
func NewArena(ps []*Param) *Arena {
	n := 0
	for _, p := range ps {
		n += p.n
	}
	a := &Arena{Data: tensor.NewVector(n), Grad: tensor.NewVector(n)}
	off := 0
	for _, p := range ps {
		p.Data, p.Grad = a.Data[off:off+p.n], a.Grad[off:off+p.n]
		off += p.n
	}
	return a
}

// ArenaView reports whether the parameters in ps are back-to-back windows
// of one contiguous allocation (the NewArena layout) and, if so, returns
// the full flat data and gradient vectors. Optimizers use it to switch to
// whole-arena fused updates; ok is false for parameter lists assembled
// from individually allocated Params.
func ArenaView(ps []*Param) (data, grad tensor.Vector, ok bool) {
	total := ParamCount(ps)
	if total == 0 || len(ps) == 0 {
		return nil, nil, false
	}
	first := ps[0]
	if cap(first.Data) < total || cap(first.Grad) < total {
		return nil, nil, false
	}
	data = first.Data[:total]
	grad = first.Grad[:total]
	off := 0
	for _, p := range ps {
		if len(p.Data) != len(p.Grad) {
			return nil, nil, false
		}
		if len(p.Data) > 0 {
			if &data[off] != &p.Data[0] || &grad[off] != &p.Grad[0] {
				return nil, nil, false
			}
		}
		off += len(p.Data)
	}
	return data, grad, true
}
