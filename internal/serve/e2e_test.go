package serve_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"selsync/internal/experiments"
	"selsync/internal/serve"
)

// startServer runs a real-builder daemon on the given listener and
// returns a dialer for it.
func startServer(t *testing.T, opts serve.Options, lis interface {
	net.Listener
}, dial func() (net.Conn, error)) (*serve.Server, func() *serve.Client) {
	t.Helper()
	srv := serve.NewServer(experiments.ServeBuilder(), opts)
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv, func() *serve.Client {
		conn, err := dial()
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		cl := serve.NewClient(conn)
		t.Cleanup(func() { cl.Close() })
		return cl
	}
}

// TestServePreemptResumeDigest is the headline service contract: a job
// preempted mid-run (parked through a checkpoint, resumed after the
// higher-priority job finishes) produces the exact Result digest of an
// uninterrupted run of the same spec. Verified over both fabrics a
// client can reach the daemon through — the in-process pipe and real TCP —
// and on a model whose layers own an RNG stream (AlexNetLite's Dropout),
// which the parked checkpoint must carry.
func TestServePreemptResumeDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains jobs; skipped with -short")
	}
	t.Run("pipe", func(t *testing.T) {
		t.Parallel()
		lis := serve.NewPipeListener()
		srv, dial := startServer(t, serve.Options{Slots: 1}, lis, func() (net.Conn, error) { return lis.Dial() })
		preemptResumeDigest(t, srv, dial, "resnet")
	})
	t.Run("pipe-alexnet", func(t *testing.T) {
		t.Parallel()
		lis := serve.NewPipeListener()
		srv, dial := startServer(t, serve.Options{Slots: 1}, lis, func() (net.Conn, error) { return lis.Dial() })
		preemptResumeDigest(t, srv, dial, "alexnet")
	})
	t.Run("tcp", func(t *testing.T) {
		t.Parallel()
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addr := lis.Addr().String()
		srv, dial := startServer(t, serve.Options{Slots: 1}, lis, func() (net.Conn, error) { return net.Dial("tcp", addr) })
		preemptResumeDigest(t, srv, dial, "resnet")
	})
}

func preemptResumeDigest(t *testing.T, srv *serve.Server, dial func() *serve.Client, model string) {
	// Long enough that the victim is still mid-run when the preempter
	// lands (steps run in single-digit milliseconds; this is seconds).
	victim := serve.JobSpec{
		Tenant: "slow", Model: model, Method: "selsync",
		Workers: 2, TrainN: 64, TestN: 32, MaxSteps: 1200, Seed: 5,
	}
	cl := dial()

	refID, err := cl.Submit(victim)
	if err != nil {
		t.Fatalf("submit reference: %v", err)
	}
	refFinal, err := cl.Wait(refID)
	if err != nil {
		t.Fatalf("wait reference: %v", err)
	}
	if refFinal.Type != serve.EvDone || refFinal.Digest == "" {
		t.Fatalf("reference run ended %+v, want done with a digest", refFinal)
	}

	victimID, err := cl.Submit(victim)
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	// Preempt once the victim holds the slot.
	waitForState(t, cl, victimID, serve.StateRunning)
	hi := serve.JobSpec{
		Tenant: "vip", Priority: 5, Model: "resnet", Method: "bsp",
		Workers: 2, TrainN: 64, TestN: 32, MaxSteps: 4, Seed: 9,
	}
	hiID, err := cl.Submit(hi)
	if err != nil {
		t.Fatalf("submit preempter: %v", err)
	}
	if final, err := cl.Wait(hiID); err != nil || final.Type != serve.EvDone {
		t.Fatalf("preempter ended %+v (%v), want done", final, err)
	}

	var parked, recovered int
	var final *serve.WireEvent
	sub := dial()
	err = sub.Events(victimID, 0, func(ev serve.WireEvent) error {
		switch ev.Type {
		case serve.EvParked:
			parked++
		case "recovery":
			recovered++
		}
		if ev.Final {
			cp := ev
			final = &cp
		}
		return nil
	})
	if err != nil || final == nil {
		t.Fatalf("victim event stream: %v (final %v)", err, final)
	}
	if parked == 0 || recovered == 0 {
		t.Fatalf("victim was never preempted (parked %d, recovery %d) — raise MaxSteps", parked, recovered)
	}
	if final.Type != serve.EvDone {
		t.Fatalf("victim ended %+v, want done", final)
	}
	if final.Digest != refFinal.Digest {
		t.Fatalf("preempted digest %s != uninterrupted digest %s — resume is not bit-identical",
			final.Digest, refFinal.Digest)
	}
}

func waitForState(t *testing.T, cl *serve.Client, id, state string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Status()
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		for _, j := range st.Jobs {
			if j.Job == id && j.State == state {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, state)
}

// TestServeEventOrdering is the event-stream property test: under a
// concurrent mixed-priority run with forced preemptions, every job's
// event sequence is dense and gap-free from 0, opens with submitted,
// closes with exactly one final event, balances its parks and resumes,
// and its step events cover 0..MaxSteps-1 contiguously across segments.
func TestServeEventOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("trains jobs; skipped with -short")
	}
	const jobs, maxSteps = 14, 6
	lis := serve.NewPipeListener()
	_, dial := startServer(t, serve.Options{Slots: 2}, lis, func() (net.Conn, error) { return lis.Dial() })

	methods := []string{"bsp", "selsync", "local", "bsp:3,selsync"}
	cl := dial()
	ids := make([]string, jobs)
	streams := make([][]serve.WireEvent, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		spec := serve.JobSpec{
			Name: fmt.Sprintf("order-%02d", i), Tenant: fmt.Sprintf("t%d", i%3),
			Model: "resnet", Method: methods[i%len(methods)],
			Workers: 2, TrainN: 96, TestN: 32, MaxSteps: maxSteps, Seed: uint64(i + 1),
		}
		if i%4 == 3 {
			spec.Priority = 1 // forces preemptions once both slots fill
		}
		id, err := cl.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sub := dial()
			sub.Events(id, 0, func(ev serve.WireEvent) error {
				streams[i] = append(streams[i], ev)
				return nil
			})
		}(i, id)
	}
	wg.Wait()

	var totalParked int
	for i, evs := range streams {
		if len(evs) == 0 {
			t.Fatalf("job %s produced no events", ids[i])
		}
		var finals, parked, recovered int
		var steps []int
		for k, ev := range evs {
			if ev.Seq != uint64(k) {
				t.Fatalf("job %s event %d has seq %d: sequence must be dense and gap-free", ids[i], k, ev.Seq)
			}
			if ev.Job != ids[i] {
				t.Fatalf("job %s event %d carries id %s", ids[i], k, ev.Job)
			}
			if ev.Final {
				finals++
				if k != len(evs)-1 {
					t.Fatalf("job %s has a final event at %d of %d: final must be last", ids[i], k, len(evs))
				}
			}
			switch ev.Type {
			case serve.EvParked:
				parked++
			case "recovery":
				recovered++
			case "step":
				steps = append(steps, ev.Step)
			}
		}
		if evs[0].Type != serve.EvSubmitted {
			t.Fatalf("job %s opens with %q, want submitted", ids[i], evs[0].Type)
		}
		if finals != 1 {
			t.Fatalf("job %s has %d final events, want exactly 1", ids[i], finals)
		}
		if last := evs[len(evs)-1]; last.Type != serve.EvDone {
			t.Fatalf("job %s ended %q (%s), want done", ids[i], last.Type, last.Err)
		}
		if parked != recovered {
			t.Fatalf("job %s parked %d times but recovered %d times", ids[i], parked, recovered)
		}
		totalParked += parked
		if len(steps) != maxSteps {
			t.Fatalf("job %s emitted %d step events, want %d", ids[i], len(steps), maxSteps)
		}
		for k, s := range steps {
			if s != k {
				t.Fatalf("job %s step events %v: must cover 0..%d contiguously across park/resume", ids[i], steps, maxSteps-1)
			}
		}
	}
	t.Logf("event ordering held across %d jobs (%d preemptions observed)", jobs, totalParked)
}
