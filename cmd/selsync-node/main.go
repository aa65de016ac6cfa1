// Command selsync-node runs one rank of a multi-process training job over
// the TCP transport, or launches a whole localhost job (-launch).
//
// Every rank runs the same loop over its block of workers (SPMD) and ends
// with the same Result. Rank 0 plays the parameter server for every
// collective and prints the run report; the other ranks meet it at every
// synchronization.
//
// One rank per terminal:
//
//	selsync-node -rank 0 -peers 127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703,127.0.0.1:7704 \
//	    -model resnet -method selsync -workers 4 -steps 100
//	selsync-node -rank 1 -peers ... (and 2, 3)
//
// Or let rank -launch spawn the whole job as real OS processes:
//
//	selsync-node -launch 4 -model resnet -method selsync -workers 4 -steps 100
//
// Fault tolerance: with -supervise (plus -checkpoint and -ckpt-every) the
// launcher babysits the gang — a rank that dies from a fabric fault or an
// injected crash triggers a gang restart of every rank from the newest
// auto-checkpoint step all ranks persisted, reproducing the uninterrupted
// run bit for bit:
//
//	selsync-node -launch 4 -supervise -checkpoint /tmp/ck -ckpt-every 25 \
//	    -crash-rank 2 -crash-at-step 100 -digest ...
//
// Elastic membership: with -membership the ranks execute a scripted
// leave/join plan at step boundaries. A rank whose leave fires exits with
// code 4; relaunching it with -join dials back into the running mesh,
// receives the live state transfer from rank 0, and re-enters at the
// plan's join boundary. Under -supervise an exit-4 rank is relaunched
// alone with -join instead of gang-restarting the whole job:
//
//	selsync-node -launch 4 -supervise -membership "leave=2@40;join=2@80" \
//	    -checkpoint /tmp/ck -ckpt-every 25 -digest ...
//
// Exit codes: 0 success, 2 configuration or I/O failure, 3 fabric fault
// (typed comm error; partial result salvaged), 4 planned membership
// departure (relaunch with -join to re-enter), 7 injected rank crash.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"selsync/internal/comm"
	"selsync/internal/experiments"
	"selsync/internal/train"
)

const (
	exitFail  = 2 // configuration or I/O failure
	exitFault = 3 // fabric fault: typed comm error, partial result salvaged
	exitLeft  = 4 // planned membership departure: relaunch with -join to re-enter
	exitCrash = 7 // whole-rank crash (chaos schedule or -crash-at-step)
)

func main() {
	model := flag.String("model", "resnet", "workload: resnet | vgg | alexnet | transformer")
	method := flag.String("method", "selsync", "policy: bsp | selsync | fedavg | ssp | local, or a schedule like bsp:200,selsync")
	workers := flag.Int("workers", 4, "global number of workers (divisible by the rank count)")
	steps := flag.Int("steps", 100, "training steps per worker")
	trainN := flag.Int("train", 2048, "training-set size")
	testN := flag.Int("test", 512, "test-set size")
	seed := flag.Uint64("seed", 1, "run seed")
	scheme := flag.String("scheme", "seldp", "IID partitioning: seldp | defdp")
	delta := flag.Float64("delta", 0, "SelSync δ (0 = the workload's calibrated low threshold)")
	mode := flag.String("agg", "param", "SelSync aggregation: param | grad")
	c := flag.Float64("c", 1, "FedAvg participation fraction C")
	e := flag.Float64("e", 0.25, "FedAvg sync factor E")
	staleness := flag.Int("staleness", 100, "SSP staleness bound")
	labelsPerWorker := flag.Int("noniid", 0, "labels per worker (0 = IID)")
	alpha := flag.Float64("alpha", 0, "data-injection α (0 = off)")
	beta := flag.Float64("beta", 0, "data-injection β")
	codec := flag.String("codec", "", "wire payload codec: none | topk:F | q8 | q16 | partial:U[,D] (default none)")
	transport := flag.String("transport", "tcp", "communication backend: tcp | loopback")
	rank := flag.Int("rank", -1, "this process's rank (tcp transport)")
	peers := flag.String("peers", "", "comma-separated host:port per rank (tcp transport)")
	launch := flag.Int("launch", 0, "spawn this many ranks as OS processes on localhost and wait")
	progress := flag.Bool("progress", false, "stream live evaluation progress to stderr (rank 0)")
	ckptPath := flag.String("checkpoint", "", "save the run's final (or interrupted) state; on a mesh every rank writes <path>.rank<r>")
	resumePath := flag.String("resume", "", "resume from a checkpoint; on a mesh every rank reads <path>.rank<r>")
	ckptEvery := flag.Int("ckpt-every", 0, "also auto-save a checkpoint every N steps to <checkpoint>.rank<r>.s<step> (requires -checkpoint)")
	supervise := flag.Bool("supervise", false, "with -launch: gang-restart the job from its auto-checkpoints when a rank dies (requires -checkpoint and -ckpt-every)")
	maxRestarts := flag.Int("max-restarts", 2, "with -supervise: gang restarts before giving up")
	chaos := flag.String("chaos", "", "deterministic fault-plan script injected in front of the TCP endpoint, e.g. \"seed=7;delay=100us..1ms;drop=0.01\"")
	opTimeout := flag.Duration("op-timeout", 0, "bound every collective receive (0 = unbounded); a rank blocked on a dead peer fails instead of hanging")
	crashAtStep := flag.Int("crash-at-step", 0, "fault injection: exit(7) when -crash-rank completes this 0-based step")
	crashRank := flag.Int("crash-rank", 0, "the rank -crash-at-step kills")
	digest := flag.Bool("digest", false, "print the run's result digest (rank 0) for bit-identity checks")
	membership := flag.String("membership", "", "elastic-membership plan, e.g. \"leave=2@40;join=2@80\" (see train.ParseMembershipPlan)")
	quorum := flag.Int("quorum", 0, "live-rank continuation threshold (0 = plan or default ⌈N/2⌉+1)")
	join := flag.Bool("join", false, "rejoin a running mesh as -rank: dial back in, receive rank 0's state transfer, re-enter at the plan's join boundary")
	heartbeat := flag.Duration("heartbeat", 0, "liveness beacon interval; silence past 4 intervals marks a peer suspect (0 = off)")
	netStats := flag.Bool("net-stats", false, "print per-rank transport counters (frames/bytes, redials, timeouts per peer) at end of run")
	flag.Parse()

	switch *mode {
	case "param", "grad":
	default:
		fail("unknown -agg %q (want param or grad)", *mode)
	}
	if *ckptEvery > 0 && *ckptPath == "" {
		fail("-ckpt-every requires -checkpoint")
	}
	if *supervise {
		if *launch <= 0 {
			fail("-supervise requires -launch")
		}
		if *ckptPath == "" || *ckptEvery <= 0 {
			fail("-supervise requires -checkpoint and -ckpt-every (the gang-restart source)")
		}
	}
	if *join {
		if *membership == "" {
			fail("-join requires -membership (the plan names the join boundary to re-enter at)")
		}
		if *launch > 0 {
			fail("-join re-enters one rank; it cannot be combined with -launch")
		}
	}

	spec := experiments.RunSpec{
		Model: *model, Method: *method, Scheme: *scheme,
		Workers: *workers, TrainN: *trainN, TestN: *testN,
		MaxSteps: *steps, Seed: *seed,
		Delta: *delta, GradAgg: *mode == "grad",
		C: *c, E: *e, Staleness: *staleness,
		LabelsPerWorker: *labelsPerWorker, Alpha: *alpha, Beta: *beta,
		Membership: *membership, Quorum: *quorum,
		Codec: *codec,
	}

	if *launch > 0 {
		if *rank != -1 || *peers != "" {
			fail("-launch spawns all ranks itself; -rank/-peers cannot be combined with it")
		}
		if *transport != "tcp" {
			fail("-launch requires -transport tcp (loopback is single-process)")
		}
		if *workers%*launch != 0 {
			fail("-workers (%d) must be divisible by -launch (%d)", *workers, *launch)
		}
		if *supervise {
			os.Exit(superviseJob(*launch, flag.CommandLine, *ckptPath, *maxRestarts))
		}
		os.Exit(launchJob(*launch, flag.CommandLine))
	}

	fabric, report, err := experiments.ParseTransportOpts(*transport, *rank, *peers, *workers,
		experiments.TransportOptions{
			Chaos:     *chaos,
			OpTimeout: *opTimeout,
			Heartbeat: *heartbeat,
			Rejoin:    *join,
			OnCrash: func() {
				// A scheduled whole-rank crash: die the way a killed process
				// does — no goodbye to the peers, no checkpoint.
				fmt.Fprintf(os.Stderr, "rank %d: scheduled chaos crash\n", *rank)
				os.Exit(exitCrash)
			},
		})
	if err != nil {
		fail("%v", err)
	}
	if fabric != nil {
		defer fabric.Close()
		spec.Fabric = fabric
	}

	// Checkpoints are rank-local: on a mesh each rank owns its hosted
	// workers' state, so every rank reads/writes its own file.
	rankPath := func(path string) string {
		if path == "" || fabric == nil {
			return path
		}
		return fmt.Sprintf("%s.rank%d", path, *rank)
	}

	var opts []train.Option
	if *join {
		// A rejoining rank skips initial training: it blocks on rank 0's
		// live state transfer and re-enters at the plan's join boundary.
		opts = append(opts, train.WithLateJoin())
	}
	var prog *train.ProgressObserver
	if *progress && report {
		prog = train.NewProgressObserver(os.Stderr)
		opts = append(opts, train.WithObserver(prog))
	}
	if *resumePath != "" {
		ck, err := train.LoadCheckpoint(rankPath(*resumePath))
		if err != nil {
			fail("loading -resume checkpoint: %v", err)
		}
		fmt.Fprintf(os.Stderr, "resuming from checkpoint step %d (%s)\n", ck.Step, rankPath(*resumePath))
		opts = append(opts, train.WithResume(ck))
	}
	if *ckptEvery > 0 {
		base := rankPath(*ckptPath)
		opts = append(opts, train.WithAutoCheckpoint(*ckptEvery, func(step int, ck *train.Checkpoint) error {
			if ck.Dirty {
				return nil // emergency snapshots are not restart sources
			}
			return train.SaveCheckpoint(fmt.Sprintf("%s.s%d", base, step), ck)
		}))
	}
	if *crashAtStep > 0 && *rank == *crashRank {
		opts = append(opts, train.WithObserver(train.ObserverFunc(func(ev train.Event) {
			if se, ok := ev.(train.StepEvent); ok && se.Step >= *crashAtStep {
				fmt.Fprintf(os.Stderr, "rank %d: injected crash at step %d\n", *rank, se.Step)
				os.Exit(exitCrash)
			}
		})))
	}

	job, wl, err := experiments.JobFor(spec, opts...)
	if err != nil {
		fail("%v", err)
	}
	if prog != nil {
		prog.SetPerplexity(wl.Factory.Spec.Perplexity)
	}

	// SIGINT cancels at the next step boundary. Caution on a mesh: every
	// rank must receive the signal (the -launch process group does) or
	// the surviving ranks block at their next collective.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()
	go func() {
		// Once cancellation is in flight, restore default SIGINT handling
		// so a second Ctrl-C force-kills (e.g. a mesh rank stuck in a
		// collective that never reaches a step boundary).
		<-ctx.Done()
		stopSig()
	}()

	res, err := job.Run(ctx)
	if errors.Is(err, train.ErrRankLeft) {
		// The membership plan removed this rank: its workers were adopted by
		// rank 0, so there is no state to salvage here. Exit with the
		// departure code; the supervisor relaunches the rank with -join.
		step := 0
		if res != nil {
			step = res.Steps
		}
		printNetStats(fabric, *rank, *netStats)
		fmt.Fprintf(os.Stderr, "rank %d: left the mesh at step %d per the membership plan\n", *rank, step)
		os.Exit(exitLeft)
	}
	// A deadline behaves like Ctrl-C: Run still hands back a valid
	// partial Result worth printing and checkpointing.
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	var pe *comm.PeerError
	if err != nil && !interrupted && errors.As(err, &pe) {
		// The hardened fabric path: a peer failure surfaced as a typed
		// error with a partial Result. Salvage what we can and exit with
		// the recoverable code so a supervisor gang-restarts the job.
		step := 0
		if res != nil {
			step = res.Steps
		}
		fmt.Fprintf(os.Stderr, "rank %d: fabric fault at step %d: %v\n", *rank, step, err)
		if *ckptPath != "" {
			if ck := job.EmergencyCheckpoint(); ck != nil {
				path := rankPath(*ckptPath) + ".emergency"
				if serr := train.SaveCheckpoint(path, ck); serr != nil {
					fmt.Fprintf(os.Stderr, "saving emergency checkpoint: %v\n", serr)
				} else {
					fmt.Fprintf(os.Stderr, "emergency checkpoint saved to %s\n", path)
				}
			}
		}
		os.Exit(exitFault)
	}
	if err != nil && !interrupted {
		fail("%v", err)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "rank %d interrupted at step %d\n", *rank, res.Steps)
	}
	if *ckptPath != "" {
		ck, err := job.Checkpoint(context.Background())
		if err != nil {
			fail("checkpointing: %v", err)
		}
		if err := train.SaveCheckpoint(rankPath(*ckptPath), ck); err != nil {
			fail("saving checkpoint: %v", err)
		}
		fmt.Fprintf(os.Stderr, "checkpoint saved to %s\n", rankPath(*ckptPath))
	}
	printNetStats(fabric, *rank, *netStats)
	if report {
		fmt.Println(res)
		fmt.Printf("sync steps: %d, local steps: %d, comm reduction vs BSP: %.1fx\n",
			res.SyncSteps, res.LocalSteps, res.CommReduction())
		if *digest {
			fmt.Printf("digest: %s\n", res.Digest())
		}
	} else {
		fmt.Printf("rank %d done\n", *rank)
	}
}

// printNetStats reports the rank's physical transport counters — including
// the fault-path ones (reconnect attempts, deadline expiries) that make a
// degraded run diagnosable — when -net-stats asks for them, or
// unconditionally once any redial/timeout fired.
func printNetStats(fabric comm.Fabric, rank int, always bool) {
	m, ok := fabric.(*comm.Mesh)
	if !ok || m.Procs() == 1 {
		return // a single process has no transport to report on
	}
	ns := m.Endpoint().NetStats()
	if !always && ns.Redials == 0 && ns.Timeouts == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "rank %d net: sent %d frames/%d B, recv %d frames/%d B, redials %d, timeouts %d\n",
		rank, ns.FramesSent, ns.BytesSent, ns.FramesRecv, ns.BytesRecv, ns.Redials, ns.Timeouts)
	for peer, p := range ns.PerPeer {
		if p.Redials > 0 || p.Timeouts > 0 {
			fmt.Fprintf(os.Stderr, "rank %d net: peer %d: redials %d, timeouts %d\n",
				rank, peer, p.Redials, p.Timeouts)
		}
	}
}

// launchJob reserves one localhost port per rank, spawns every rank as a
// child process of this same binary, and waits. Returns the exit code.
func launchJob(ranks int, fs *flag.FlagSet) int {
	codes, ok := runGang(ranks, fs, nil, false)
	if !ok {
		return 1
	}
	code := 0
	for r, c := range codes {
		if c != 0 {
			fmt.Fprintf(os.Stderr, "rank %d exited with code %d\n", r, c)
			code = 1
		}
	}
	return code
}

// superviseJob is launchJob with a babysitter: when ranks die with a
// recoverable code — an injected crash (7) or a fabric fault (3) — it
// computes the newest auto-checkpoint step every rank persisted, stages
// those files as the gang's resume source, and relaunches all ranks from it
// with the crash injection disabled (the scripted fault fires once). Any
// other nonzero exit, or running out of restarts, gives up.
func superviseJob(ranks int, fs *flag.FlagSet, ckptBase string, maxRestarts int) int {
	for attempt := 0; ; attempt++ {
		var overrides map[string]string
		if attempt > 0 {
			step, err := latestCommonStep(ckptBase, ranks)
			if err != nil {
				fmt.Fprintf(os.Stderr, "supervisor: %v\n", err)
				return 1
			}
			resumeBase := fmt.Sprintf("%s.recover%d", ckptBase, attempt)
			for r := 0; r < ranks; r++ {
				src := fmt.Sprintf("%s.rank%d.s%d", ckptBase, r, step)
				if err := copyFile(src, fmt.Sprintf("%s.rank%d", resumeBase, r)); err != nil {
					fmt.Fprintf(os.Stderr, "supervisor: staging restart checkpoint: %v\n", err)
					return 1
				}
			}
			fmt.Printf("supervisor: gang restart %d/%d from step %d\n", attempt, maxRestarts, step)
			overrides = map[string]string{
				"resume":        resumeBase,
				"crash-at-step": "0",
				"chaos":         "",
			}
		}
		// Elastic membership first: a rank that exits with the departure
		// code is relaunched alone with -join inside runGang — far cheaper
		// than tearing down the survivors for a gang restart.
		codes, ok := runGang(ranks, fs, overrides, true)
		if !ok {
			return 1
		}
		recoverable, code := false, 0
		for r, c := range codes {
			switch c {
			case 0:
			case exitFault, exitCrash:
				fmt.Fprintf(os.Stderr, "supervisor: rank %d exited with recoverable code %d\n", r, c)
				recoverable = true
				if code == 0 {
					code = c
				}
			default:
				fmt.Fprintf(os.Stderr, "supervisor: rank %d exited with unrecoverable code %d\n", r, c)
				return c
			}
		}
		if !recoverable {
			if attempt > 0 {
				fmt.Printf("supervisor: job recovered after %d restart(s)\n", attempt)
			}
			return 0
		}
		if attempt >= maxRestarts {
			fmt.Fprintf(os.Stderr, "supervisor: giving up after %d restart(s)\n", attempt)
			return code
		}
	}
}

// runGang spawns every rank as a child of this same binary on freshly
// reserved localhost ports, forwarding every training flag (as set or
// defaulted, with overrides applied) minus the launcher-only ones, and
// waits for all of them. Returns each rank's exit code.
//
// With rejoin, a rank exiting with the planned-departure code (4) is
// relaunched alone with -join while the survivors keep training: the
// replacement dials back into the still-running mesh and catches rank 0's
// state transfer at the plan's join boundary. Its exit code replaces the
// departed rank's.
func runGang(ranks int, fs *flag.FlagSet, overrides map[string]string, rejoin bool) ([]int, bool) {
	peers, err := reservePorts(ranks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reserving ports: %v\n", err)
		return nil, false
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "locating binary: %v\n", err)
		return nil, false
	}

	var common []string
	fs.VisitAll(func(f *flag.Flag) {
		switch f.Name {
		case "launch", "supervise", "max-restarts", "rank", "peers", "join":
			return
		}
		v := f.Value.String()
		if ov, ok := overrides[f.Name]; ok {
			v = ov
		}
		common = append(common, "-"+f.Name+"="+v)
	})
	spawn := func(r int, extra ...string) (*exec.Cmd, error) {
		args := append([]string{
			"-rank=" + strconv.Itoa(r),
			"-peers=" + strings.Join(peers, ","),
		}, common...)
		args = append(args, extra...)
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		return cmd, cmd.Start()
	}
	wait := func(r int, cmd *exec.Cmd) int {
		if err := cmd.Wait(); err != nil {
			var xe *exec.ExitError
			if errors.As(err, &xe) {
				return xe.ExitCode()
			}
			fmt.Fprintf(os.Stderr, "rank %d: %v\n", r, err)
			return 1
		}
		return 0
	}

	fmt.Printf("launching %d ranks: %s\n", ranks, strings.Join(peers, " "))
	cmds := make([]*exec.Cmd, ranks)
	for r := 0; r < ranks; r++ {
		cmd, err := spawn(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starting rank %d: %v\n", r, err)
			for _, running := range cmds[:r] {
				running.Process.Kill()
			}
			return nil, false
		}
		cmds[r] = cmd
	}
	codes := make([]int, ranks)
	var wg sync.WaitGroup
	for r, cmd := range cmds {
		wg.Add(1)
		go func(r int, cmd *exec.Cmd) {
			defer wg.Done()
			code := wait(r, cmd)
			if rejoin && code == exitLeft {
				// The survivors are still running toward the plan's join
				// boundary; put the departed rank back before they get there.
				fmt.Printf("supervisor: rank %d left the mesh; relaunching it with -join\n", r)
				rc, err := spawn(r, "-join=true")
				if err != nil {
					fmt.Fprintf(os.Stderr, "supervisor: relaunching rank %d: %v\n", r, err)
					codes[r] = 1
					return
				}
				code = wait(r, rc)
			}
			codes[r] = code
		}(r, cmd)
	}
	wg.Wait()
	return codes, true
}

// latestCommonStep scans every rank's auto-checkpoint files
// (<base>.rank<r>.s<step>) and returns the newest step all ranks persisted
// — the gang-restart line: resuming anywhere later would leave some rank
// without a matching checkpoint.
func latestCommonStep(base string, ranks int) (int, error) {
	count := make(map[int]int)
	for r := 0; r < ranks; r++ {
		matches, err := filepath.Glob(fmt.Sprintf("%s.rank%d.s*", base, r))
		if err != nil {
			return 0, err
		}
		seen := make(map[int]bool)
		for _, m := range matches {
			step, err := strconv.Atoi(m[strings.LastIndex(m, ".s")+2:])
			if err != nil {
				continue // not a step file (e.g. an .emergency sibling)
			}
			if !seen[step] {
				seen[step] = true
				count[step]++
			}
		}
	}
	best := -1
	for step, n := range count {
		if n == ranks && step > best {
			best = step
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no auto-checkpoint step common to all %d ranks under %s", ranks, base)
	}
	return best, nil
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// reservePorts finds n free localhost ports by binding and releasing them.
// The children re-bind moments later; on a quiet machine the addresses
// stay free for that window.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(exitFail)
}
