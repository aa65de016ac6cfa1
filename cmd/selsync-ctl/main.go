// Command selsync-ctl drives a selsync-serve daemon over the wire
// protocol:
//
//	selsync-ctl -addr 127.0.0.1:7600 submit -tenant anna -model resnet -method selsync -steps 40 -wait
//	selsync-ctl -addr 127.0.0.1:7600 status
//	selsync-ctl -addr 127.0.0.1:7600 events -job j-000001
//	selsync-ctl -addr 127.0.0.1:7600 cancel -job j-000001
//	selsync-ctl -addr 127.0.0.1:7600 drain
//
// submit takes selsync-node's training flags (those a serve job carries)
// and prints the assigned job id; with -wait it additionally streams
// the job's events as JSONL until the final one and exits 0 only if the
// job completed (printing "result digest: <hex>", the bit-exact Result
// fingerprint — a preempted-then-resumed job prints the same digest as
// an uninterrupted run). events streams any job's history + live tail
// the same way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"selsync/internal/experiments"
	"selsync/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7600", "daemon address")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: selsync-ctl [-addr host:port] <submit|status|events|cancel|drain> [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cl, err := serve.Dial(*addr)
	if err != nil {
		fail("dialing %s: %v", *addr, err)
	}
	defer cl.Close()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "submit":
		submit(cl, args)
	case "status":
		status(cl, args)
	case "events":
		events(cl, args)
	case "cancel":
		cancel(cl, args)
	case "drain":
		if err := cl.Drain(); err != nil {
			fail("%v", err)
		}
		fmt.Println("draining (daemon exits once running jobs park)")
	default:
		fail("unknown command %q (want submit|status|events|cancel|drain)", cmd)
	}
}

func submit(cl *serve.Client, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	name := fs.String("name", "", "human label for the job")
	tenant := fs.String("tenant", "default", "fair-share tenant")
	priority := fs.Int("priority", 0, "scheduling priority (higher runs first and preempts)")
	var run experiments.RunSpec
	experiments.BindRunFlags(fs, &run)
	wait := fs.Bool("wait", false, "stream the job's events until it finishes; exit 0 only on completion")
	fs.Parse(args)

	spec, err := experiments.JobSpecFor(run)
	if err != nil {
		fail("%v", err)
	}
	spec.Name, spec.Tenant, spec.Priority = *name, *tenant, *priority
	id, err := cl.Submit(spec)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("submitted %s\n", id)
	if !*wait {
		return
	}
	final := streamEvents(cl, id, 0)
	if final == nil {
		fail("event stream for %s ended without a final event", id)
	}
	if final.Type != serve.EvDone {
		fail("job %s finished %s: %s", id, final.State, final.Err)
	}
	fmt.Printf("result digest: %s\n", final.Digest)
}

func status(cl *serve.Client, args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the raw status snapshot as JSON")
	fs.Parse(args)
	st, err := cl.Status()
	if err != nil {
		fail("%v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(st)
		return
	}
	fmt.Printf("slots %d/%d occupied, %d queued, %d parked, %d done, %d failed, %d canceled",
		st.Occupied, st.Slots, st.Queued, st.Parked, st.Done, st.Failed, st.Canceled)
	if st.Draining {
		fmt.Print(" [draining]")
	}
	fmt.Println()
	fmt.Printf("net: %d pushes, %d pulls, %d B recv, %d B sent\n",
		st.Net.Pushes, st.Net.Pulls, st.Net.Bytes.Recv, st.Net.Bytes.Sent)
	for _, t := range st.Tenants {
		fmt.Printf("tenant %-12s weight %.1f  served %6d steps  share %.3f  live %d\n",
			t.Tenant, t.Weight, t.ServedSteps, t.Share, t.Live)
	}
	for _, j := range st.Jobs {
		line := fmt.Sprintf("%s  %-8s  tenant %s  prio %d  step %d", j.Job, j.State, j.Tenant, j.Priority, j.Step)
		if j.Digest != "" {
			line += "  digest " + j.Digest
		}
		if j.Err != "" {
			line += "  err " + j.Err
		}
		fmt.Println(line)
	}
}

func events(cl *serve.Client, args []string) {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	job := fs.String("job", "", "job id")
	from := fs.Uint64("from", 0, "first event sequence number")
	fs.Parse(args)
	if *job == "" {
		fail("events needs -job")
	}
	if streamEvents(cl, *job, *from) == nil {
		fail("event stream for %s ended without a final event", *job)
	}
}

func cancel(cl *serve.Client, args []string) {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	job := fs.String("job", "", "job id")
	fs.Parse(args)
	if *job == "" {
		fail("cancel needs -job")
	}
	if err := cl.Cancel(*job); err != nil {
		fail("%v", err)
	}
	fmt.Printf("canceled %s\n", *job)
}

// streamEvents prints a job's events as JSONL and returns the final one
// (nil if the stream ended early, e.g. daemon shutdown).
func streamEvents(cl *serve.Client, id string, from uint64) *serve.WireEvent {
	enc := json.NewEncoder(os.Stdout)
	var final *serve.WireEvent
	err := cl.Events(id, from, func(ev serve.WireEvent) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if ev.Final {
			cp := ev
			final = &cp
		}
		return nil
	})
	if err != nil {
		fail("%v", err)
	}
	return final
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
