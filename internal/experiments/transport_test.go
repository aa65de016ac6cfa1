package experiments

import (
	"context"
	"strings"
	"testing"
	"time"
)

// Without -peers the run is the loopback, which must reject every TCP-only
// option instead of silently ignoring it — a run that *looks*
// chaos-injected, deadline-bound or heartbeat-monitored but isn't is worse
// than a refused flag.
func TestParseTransportOptsLoopbackStrict(t *testing.T) {
	cases := []struct {
		name string
		rank int
		peer string
		o    TransportOptions
		want string // error fragment naming the offending flag
	}{
		{"rank", 0, "", TransportOptions{}, "-rank"},
		{"peers", -1, " , ", TransportOptions{}, "host:port"}, // a mesh was meant, but none is named
		{"chaos", -1, "", TransportOptions{Chaos: "drop=0.1"}, "-chaos"},
		{"op-timeout", -1, "", TransportOptions{OpTimeout: time.Second}, "-op-timeout"},
		{"heartbeat", -1, "", TransportOptions{Heartbeat: time.Second}, "-heartbeat"},
		{"join", -1, "", TransportOptions{Rejoin: true}, "-join"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := ParseTransportOpts(c.rank, c.peer, 4, c.o)
			if err == nil {
				t.Fatalf("loopback must reject %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "-peers") {
				t.Fatalf("error should name %q and -peers: %v", c.want, err)
			}
		})
	}
	fabric, report, err := ParseTransportOpts(-1, "", 4, TransportOptions{})
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
		"rank-unset":  {-1, "a:1,b:2", 4, "-rank"},
		"rank-range":  {2, "a:1,b:2", 4, "-rank"},
		"indivisible": {0, "a:1,b:2", 5, "divisible"},
		"bad-chaos":   {0, "a:1", 4, "-chaos"},
	} {
		t.Run(name, func(t *testing.T) {
			var o TransportOptions
			if name == "bad-chaos" {
				o.Chaos = "bogus=1"
			}
			_, _, err := ParseTransportOpts(c.rank, c.peers, c.workers, o)
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
