package simnet

import (
	"errors"

	"selsync/internal/nn"
)

// ErrOutOfMemory reports that a training configuration does not fit on the
// device — the failure mode the paper hits when scaling SSP batch sizes
// (Transformer on a 12 GB K80 fails beyond b=64, §II-C).
var ErrOutOfMemory = errors.New("simnet: configuration exceeds device memory")

// MemoryBytes returns the modeled resident footprint of training the given
// model at the given batch size: a base term (weights, gradients, optimizer
// state, framework overhead) plus an activation term linear in the batch.
func MemoryBytes(spec nn.ModelSpec, batch int) float64 {
	if batch < 0 {
		panic("simnet: negative batch")
	}
	return spec.MemBytesBase + float64(batch)*spec.MemBytesPerEx
}

// CheckFits returns ErrOutOfMemory when the configuration exceeds the
// device's capacity.
func CheckFits(spec nn.ModelSpec, batch int, d *Device) error {
	if MemoryBytes(spec, batch) > d.MemBytes {
		return ErrOutOfMemory
	}
	return nil
}
