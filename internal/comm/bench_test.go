package comm_test

import (
	"testing"

	"selsync/internal/comm"
	"selsync/internal/comm/commtest"
)

// BenchmarkReduceRound times one BSP parameter-server round of the
// end-to-end benchmark's c100 vector (ResNetLite(100, 6), 213 060
// parameters) on tcp-bsp's layout — two ranks, two workers each — over
// channel endpoints and over TCP on 127.0.0.1, with the socket bytes and
// frames the round moves: dense (the relay), and through tcp-bsp-topk's
// topk:0.01 codec (the exchange). selsync-bench -steps writes the same rows
// into BENCH_step.json.
//
//	go test ./internal/comm -run '^$' -bench ReduceRound -benchtime 200x
func BenchmarkReduceRound(b *testing.B) {
	const c100Dim = 213060
	topk, err := comm.ParseCodec("topk:0.01")
	if err != nil {
		b.Fatal(err)
	}
	for _, transport := range []string{"chan", "tcp"} {
		b.Run(transport+"-2x2", func(b *testing.B) { commtest.ReduceRound(b, transport == "tcp", comm.Codec{}, 2, 2, c100Dim) })
		b.Run(transport+"-2x2-topk", func(b *testing.B) { commtest.ReduceRound(b, transport == "tcp", topk, 2, 2, c100Dim) })
	}
}
