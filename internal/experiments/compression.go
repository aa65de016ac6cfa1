package experiments

import (
	"context"
	"io"
	"math"

	"selsync/internal/comm"
	"selsync/internal/train"
)

// Compression measures the wire-efficiency codecs on a BSP run — the
// heaviest-traffic policy, one gradient collective per step — over one
// ResNetLite workload. Every run trains the same steps from the same seed;
// only the payload codec changes. The table reports the exact logical
// bytes the run moved through the parameter server (the comm ledger counts
// codec framing, not dense payloads), the reduction factor vs the
// uncompressed baseline, and the accuracy drift error feedback keeps
// bounded. The "none" row is additionally required to be bit-identical to
// the dense fast path: the last column checks its digest against the plain
// BSP run.
//
// The packed(MB) column reports the bytes the lossy codecs' frames actually
// occupy on the wire (Mesh.CodecPackedWire, complete on the one-rank
// fabric): for top-k the sorted index stream is delta+varint bit-packed, so
// the packed bytes undercut the ledger's canonical 12-bytes-per-entry
// charge — "extra" is that additional reduction. For the other lossy codecs
// packed equals the ledger; the identity rows encode nothing.
func Compression(scale Scale, w io.Writer) *Table {
	p := ParamsFor(scale)
	t := &Table{
		Title:   "Wire efficiency: payload codecs on BSP gradient sync",
		Columns: []string{"codec", "wire(MB)", "reduction", "packed(MB)", "extra", "best acc", "drift(pp)", "digest==dense"},
	}
	type variant struct{ label, codec string }
	variants := []variant{
		{label: "dense", codec: ""},
		{label: "none", codec: "none"},
		{label: "topk:0.1", codec: "topk:0.1"},
		{label: "topk:0.01", codec: "topk:0.01"},
		{label: "q16", codec: "q16"},
		{label: "q8", codec: "q8"},
		{label: "partial:0.25", codec: "partial:0.25"},
	}
	wl := SetupWorkload("resnet", p, 151)
	results := make([]*train.Result, len(variants))
	bytesMoved := make([]int64, len(variants))
	packed := make([]int64, len(variants))
	parallelDo(len(variants), func(ctx context.Context, j int) {
		cfg := BaseConfig(wl, p, 151)
		// The experiment owns the fabric so it can read the traffic ledger
		// after the run; Result deliberately carries no byte counters.
		lb := comm.NewLoopback(p.Workers)
		cfg.Fabric = lb
		cfg.Codec = variants[j].codec
		results[j] = runPolicy(ctx, cfg, train.BSPPolicy{})
		st := lb.Stats()
		bytesMoved[j] = st.Bytes.Recv + st.Bytes.Sent
		pr, ps := lb.CodecPackedWire()
		packed[j] = pr + ps
	})
	base := results[0]
	baseBytes := bytesMoved[0]
	for j, v := range variants {
		res := results[j]
		reduction := "1.00x"
		if j > 0 && bytesMoved[j] > 0 {
			reduction = fmtF(float64(baseBytes)/float64(bytesMoved[j]), 2) + "x"
		}
		match := "-"
		if v.codec == "" || v.codec == "none" {
			// Lossless rows must reproduce the dense run bit for bit.
			if res.Digest() == base.Digest() {
				match = "yes"
			} else {
				match = "NO"
			}
		}
		packedMB, extra := "-", "-"
		if packed[j] > 0 {
			packedMB = fmtF(float64(packed[j])/(1<<20), 2)
			extra = fmtF(float64(bytesMoved[j])/float64(packed[j]), 2) + "x"
		}
		t.AddRow(v.label,
			fmtF(float64(bytesMoved[j])/(1<<20), 2),
			reduction,
			packedMB,
			extra,
			fmtF(res.BestMetric, 2),
			fmtF(math.Abs(res.BestMetric-base.BestMetric), 2),
			match)
	}
	t.Fprint(w)
	return t
}
