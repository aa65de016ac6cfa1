package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"selsync/internal/comm"
)

// The loopback transport must reject every TCP-only option instead of
// silently ignoring it — a run that *looks* chaos-injected, deadline-bound
// or heartbeat-monitored but isn't is worse than a refused flag.
func TestParseTransportOptsLoopbackStrict(t *testing.T) {
	cases := []struct {
		name string
		rank int
		peer string
		o    TransportOptions
		want string // error fragment naming the offending flag
	}{
		{"rank", 0, "", TransportOptions{}, "-rank"},
		{"peers", -1, "a:1", TransportOptions{}, "-peers"},
		{"chaos", -1, "", TransportOptions{Chaos: "drop=0.1"}, "-chaos"},
		{"tcp-tuning", -1, "", TransportOptions{TCP: &comm.TCPOptions{}}, "tuning"},
		{"op-timeout", -1, "", TransportOptions{OpTimeout: time.Second}, "-op-timeout"},
		{"heartbeat", -1, "", TransportOptions{Heartbeat: time.Second}, "-heartbeat"},
		{"join", -1, "", TransportOptions{Rejoin: true}, "-join"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := ParseTransportOpts("loopback", c.rank, c.peer, 4, c.o)
			if err == nil {
				t.Fatalf("loopback must reject %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error should name %q: %v", c.want, err)
			}
		})
	}
	fabric, report, err := ParseTransportOpts("loopback", -1, "", 4, TransportOptions{})
	if err != nil || fabric != nil || !report {
		t.Fatalf("clean loopback parse: fabric=%v report=%v err=%v", fabric, report, err)
	}
}

func TestParseTransportOptsTCPValidation(t *testing.T) {
	for name, c := range map[string]struct {
		rank    int
		peers   string
		workers int
		want    string
	}{
		"no-peers":     {0, "", 4, "-peers"},
		"rank-range":   {2, "a:1,b:2", 4, "-rank"},
		"indivisible":  {0, "a:1,b:2", 5, "divisible"},
		"unknown-kind": {0, "a:1", 4, "transport"},
	} {
		t.Run(name, func(t *testing.T) {
			kind := "tcp"
			if name == "unknown-kind" {
				kind = "quic"
			}
			_, _, err := ParseTransportOpts(kind, c.rank, c.peers, c.workers, TransportOptions{})
			if err == nil {
				t.Fatal("must be rejected")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error should mention %q: %v", c.want, err)
			}
		})
	}
}

// Codecs are transport-independent: the loopback run executes the full
// encode/decode path in shared memory, so a RunSpec carrying a codec must be
// ACCEPTED on the default nil-fabric loopback — unlike
// the TCP-only transport flags above — while malformed codec specs fail
// at config validation with the offending token named.
func TestRunSpecCodecOnLoopback(t *testing.T) {
	spec := RunSpec{
		Model: "resnet", Method: "bsp", Workers: 4,
		TrainN: 512, TestN: 256, MaxSteps: 8, Seed: 3,
		Codec: "topk:0.1",
	}
	job, _, err := JobFor(spec)
	if err != nil {
		t.Fatalf("loopback run must accept codecs: %v", err)
	}
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatalf("loopback run must accept codecs: %v", err)
	}
	if res.Steps != 8 {
		t.Fatalf("run did not complete: %+v", res)
	}

	for _, tc := range []struct {
		codec string
		want  string
	}{
		{"topk:nope", "nope"},
		{"zstd", "zstd"},
		{"partial:2", "partial"},
	} {
		bad := spec
		bad.Codec = tc.codec
		if _, _, err := JobFor(bad); err == nil {
			t.Fatalf("JobFor accepted malformed codec %q", tc.codec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("error for %q should name %q, got: %v", tc.codec, tc.want, err)
		}
	}
}
