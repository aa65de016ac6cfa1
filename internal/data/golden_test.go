package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"selsync/internal/tensor"
)

// datasetDigest is the sha256 of d's feature bits (row-major, little
// endian) followed by every label as a little-endian int64.
func datasetDigest(d *Dataset) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range d.X.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, ys := range d.Y {
		for _, y := range ys {
			binary.LittleEndian.PutUint64(b[:], uint64(int64(y)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestImageGenGolden pins the generated image datasets bit for bit: the
// benchmark's c100 sets (8192 training examples, then 1280 held out from
// the same generator) and the resnet/vgg/alexnet workloads at tiny scale.
// A generator that stays deterministic but draws different values, at any
// GOMAXPROCS, fails here. The values were recorded before the dataset draw
// was parallelised and must never be edited.
func TestImageGenGolden(t *testing.T) {
	sets := map[string]*Dataset{}
	c100 := NewImageGen(100, 1, 2, 3e3, 1)
	sets["c100-train"] = c100.Dataset("train", 8192)
	sets["c100-test"] = c100.Dataset("test", 1280)
	for _, model := range []string{"resnet", "vgg", "alexnet"} {
		w := WorkloadForModel(model, 2048, 512, 7)
		sets[model+"-train"] = w.Train
		sets[model+"-test"] = w.Test
	}
	want := map[string]string{
		"c100-train":    "910d042bdd7834b0dd3f55ef368a14a66b7f108c08a616be4036817bee49ca24",
		"c100-test":     "a13074310aae339aa78b1d3188ccd9a5ed0cd1bd5ed5fb8e07b4fe34008d7533",
		"resnet-train":  "c709078748b21963627b8fea46c45dfe32004800837fceaf35997a18af7092f6",
		"resnet-test":   "8398ab64d5ca0ada7836eb9e7b4bbd7f3b0819e703f65767aadc3acdb1e3c6ba",
		"vgg-train":     "06193bc19564dea8512226f132506d50bfc3c011672c78311055b08ee71c50bb",
		"vgg-test":      "cd353d0de9973ef0568164dd90220ab69c57fc5abd1085e495f286894a89e71f",
		"alexnet-train": "7b79fee042673eda50cde5f00e21e78ab9e7ddd9ce9ce8fbd08553e5a46edfe6",
		"alexnet-test":  "20eb65c05c92ded98bd1d39bd2ef903066593c55490ba18ff8268a89efa453b2",
	}
	for name, d := range sets {
		if got := datasetDigest(d); got != want[name] {
			t.Errorf("%s: digest %s, golden %s", name, got, want[name])
		}
	}
}

// TestDatasetDrawLeavesNoGoroutineBehind: a dataset draw fans out on the
// tensor package's process-lifetime helpers and starts nothing else, so
// once they exist the goroutine count is the same before and after.
func TestDatasetDrawLeavesNoGoroutineBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tensor.NewRNG(1).NormVector(tensor.NewVector(1<<20), 0, 1) // starts the helpers
	base := runtime.NumGoroutine()
	NewImageGen(10, 1, 2, 3e3, 1).Dataset("train", 4096)
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after the draw, %d before", n, base)
	}
}
