package train

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/gradstat"
	"selsync/internal/opt"
)

// Checkpoint is a complete snapshot of a training run at a step boundary:
// everything the next step reads — replica parameters, optimizer state,
// Δ(g_i) trackers, sampler cursors, virtual clocks, every RNG stream (each
// worker's device-jitter, worker and layer-owned Dropout streams, the
// injection pool's), the metric history and early-stopping state, and the
// policy's own mutable state. A run resumed from a checkpoint continues
// bit-identically to one that was never interrupted: the same batches, the
// same jitter draws, the same votes, the same float bits in the Result.
//
// A checkpoint is rank-local: on a multi-process fabric every rank
// captures its own hosted workers and must be resumed on a fabric with the
// same rank layout. Rank-invariant state (injection cursors, the policy
// state, the history) is identical across ranks by SPMD construction, so
// each rank's checkpoint carries its own consistent copy.
//
// Event-loop methods (SSP) replace the step loop with a discrete-event
// simulation mid-flight and cannot be checkpointed.
//
// The traffic ledger (push/pull/byte counters) is deliberately not
// captured: it belongs to the comm fabric, which outlives and predates any
// single run. Counters restart from the fabric's current state on resume.
type Checkpoint struct {
	// Version is the checkpoint format version (checkpointVersion).
	Version int
	// Step is the next step the resumed run will execute: steps 0..Step-1
	// are baked into the snapshot.
	Step int

	// Identity of the producing run, checked on resume.
	Method  string
	Model   string
	Seed    uint64
	Workers int // global worker count
	Dim     int // flat parameter dimension
	Rank    int // producing rank (0 on loopback)
	Procs   int // fabric process count (1 on loopback)

	// PSGlobal is the parameter server's flat global state.
	PSGlobal []float64
	// Hosted holds one entry per worker hosted by the producing rank.
	Hosted []WorkerCheckpoint

	// InjCursors and InjRNG freeze the data-injection pool stream (nil /
	// zero without injection).
	InjCursors []int
	InjRNG     uint64

	// DiagTracker is the runner's diagnostics tracker under TrackDeltas
	// (nil otherwise).
	DiagTracker *gradstat.TrackerState

	// SamplerCursors freezes every global worker's batch-stream position,
	// in worker-id order — captured only under elastic membership, where
	// every rank advances all N streams (hosted or not) so a mid-run
	// re-assignment resumes each stream where an undisturbed run would be.
	// Empty on non-elastic checkpoints (the Hosted entries carry the
	// hosted cursors there).
	SamplerCursors []SamplerCursor

	// Partial is the Result accumulated so far (history, deltas,
	// snapshots); aggregate fields are recomputed when the resumed run
	// finishes.
	Partial *Result
	// Early-stopping state.
	BestMetric float64
	HaveBest   bool
	BestStep   int
	SinceBest  int
	Stopped    bool

	// Policy is the synchronization policy's mutable state tree.
	Policy PolicyState

	// Dirty marks an emergency checkpoint captured after a fabric failure
	// tore a step mid-collective: samplers and RNG streams have advanced
	// past the last consistent boundary, so a bit-identical resume is
	// impossible and restore refuses it. Salvage/forensics only. (A new
	// gob field: absent in old checkpoints, decoding as false.)
	Dirty bool

	// Codec is the payload codec's error-feedback state: this rank's
	// hosted workers' residuals and its replica of the downlink residual
	// (nil when the run uses no lossy codec). Compressed runs resume
	// bit-identically only with it: the residual accumulators are part of
	// the training state, and a snapshot without the downlink replica is
	// refused. (A new gob field: absent in old checkpoints, decoding as
	// nil.)
	Codec *comm.CodecSnapshot
}

const checkpointVersion = 1

// checkpointMagic guards against feeding arbitrary files to the gob
// decoder.
var checkpointMagic = []byte("selsync-checkpoint\n")

// SamplerCursor is one worker's batch-stream position (data.Sampler
// cursor).
type SamplerCursor struct {
	Pos    int
	Epochs int
}

// WorkerCheckpoint freezes one hosted replica.
type WorkerCheckpoint struct {
	ID         int
	Params     []float64
	Opt        opt.State
	Tracker    gradstat.TrackerState
	Clock      float64
	Steps      int
	LocalSteps int
	SyncSteps  int
	DeviceRNG  uint64
	WorkerRNG  uint64
	SamplerPos int
	SamplerEp  int
	// LayerRNG holds the replica's layer-owned RNG streams (Dropout masks),
	// in layer order; nil for a model without stateful layers. (A new gob
	// field: absent in old checkpoints, decoding as nil — which still
	// resumes a model without such layers and is refused for one with.)
	LayerRNG []uint64
}

// PolicyState is a serializable snapshot of a SyncPolicy's mutable per-run
// state: a name tag for mismatch detection, the policy's state words, and
// the states of composed inner policies. Stateless policies (BSP, local
// SGD, SelSync — whose signal state lives in the workers' trackers) have
// an empty state.
type PolicyState struct {
	Name  string
	Words []uint64
	Sub   []PolicyState
}

// CheckpointablePolicy is the optional SyncPolicy hook for policies with
// mutable per-run state beyond the tracker signals (RNG streams, switch
// flags, phase cursors). Policies that do not implement it are treated as
// stateless by checkpoint/resume.
type CheckpointablePolicy interface {
	// CheckpointState snapshots the policy's mutable state.
	CheckpointState() PolicyState
	// RestoreState overwrites the policy's mutable state from a snapshot
	// taken on an identically constructed policy whose Init already ran.
	RestoreState(PolicyState) error
}

// capturePolicyState snapshots any policy: implementors provide their
// state, everything else is stateless.
func capturePolicyState(p SyncPolicy) PolicyState {
	if cp, ok := p.(CheckpointablePolicy); ok {
		return cp.CheckpointState()
	}
	return PolicyState{Name: p.Name()}
}

// restorePolicyState restores any policy, verifying the name tag so a
// checkpoint cannot silently resume under a different policy.
func restorePolicyState(p SyncPolicy, st PolicyState) error {
	if st.Name != p.Name() {
		return fmt.Errorf("train: checkpoint policy %q does not match run policy %q", st.Name, p.Name())
	}
	if cp, ok := p.(CheckpointablePolicy); ok {
		return cp.RestoreState(st)
	}
	if len(st.Words) != 0 || len(st.Sub) != 0 {
		return fmt.Errorf("train: checkpoint carries state for %q but the policy is stateless", st.Name)
	}
	return nil
}

// captureCheckpoint snapshots a run at the boundary before `step`. It runs
// on the training goroutine (mid-run requests are serviced between steps)
// or after the run has ended, so nothing it reads is concurrently mutated.
func captureCheckpoint(r *runner, policy SyncPolicy, step int) (*Checkpoint, error) {
	if _, ok := policy.(eventLoopPolicy); ok {
		return nil, fmt.Errorf("train: %s replaces the step loop and cannot be checkpointed", policy.Name())
	}
	ck := &Checkpoint{
		Version:  checkpointVersion,
		Step:     step,
		Method:   policy.Name(),
		Model:    r.spec.Name,
		Seed:     r.cfg.Seed,
		Workers:  r.cl.N(),
		Dim:      r.cl.Dim(),
		Rank:     r.cl.Rank(),
		Procs:    r.cl.Procs(),
		PSGlobal: append([]float64(nil), r.cl.PS.Global...),
		Policy:   capturePolicyState(policy),

		BestMetric: r.bestMetric,
		HaveBest:   r.haveBest,
		BestStep:   r.bestStep,
		SinceBest:  r.sinceBest,
		Stopped:    r.stop,
		Partial:    cloneResult(r.res),
	}
	for _, w := range r.cl.Workers {
		wc, err := captureWorker(r, w)
		if err != nil {
			return nil, err
		}
		ck.Hosted = append(ck.Hosted, wc)
	}
	if r.inj != nil {
		ck.InjCursors = append([]int(nil), r.injCursors...)
		ck.InjRNG = r.injRNG.State()
	}
	if r.diagTracker != nil {
		st := r.diagTracker.State()
		ck.DiagTracker = &st
	}
	if r.memb != nil {
		ck.SamplerCursors = captureSamplerCursors(r)
	}
	ck.Codec = r.cl.CodecSnapshot()
	return ck, nil
}

// captureWorker freezes one hosted replica and its batch-stream cursor.
func captureWorker(r *runner, w *cluster.Worker) (WorkerCheckpoint, error) {
	co, ok := w.Optimizer.(opt.Checkpointable)
	if !ok {
		return WorkerCheckpoint{}, fmt.Errorf("train: worker %d's optimizer (%T) does not implement opt.Checkpointable", w.ID, w.Optimizer)
	}
	pos, ep := r.samplers[w.ID].Cursor()
	return WorkerCheckpoint{
		ID:         w.ID,
		Params:     append([]float64(nil), w.FlatParams()...),
		Opt:        co.State(),
		Tracker:    w.Tracker.State(),
		Clock:      w.Clock,
		Steps:      w.Steps,
		LocalSteps: w.LocalSteps,
		SyncSteps:  w.SyncSteps,
		DeviceRNG:  w.Device.RNGState(),
		WorkerRNG:  w.RNG.State(),
		SamplerPos: pos,
		SamplerEp:  ep,
		LayerRNG:   w.LayerRNG(),
	}, nil
}

// captureSamplerCursors snapshots every global worker's batch-stream
// position in id order.
func captureSamplerCursors(r *runner) []SamplerCursor {
	out := make([]SamplerCursor, len(r.samplers))
	for i, s := range r.samplers {
		out[i].Pos, out[i].Epochs = s.Cursor()
	}
	return out
}

// captureRejoinCheckpoint assembles the hot-rejoin state transfer on rank
// 0: a Checkpoint whose identity names the *rejoining* rank and whose
// Hosted entries are the adopted replicas of that rank's worker block —
// exactly what restoreCheckpoint on the rejoiner expects. Rank-invariant
// state (PS global, policy, history, early stopping, injection, all-N
// sampler cursors) rides along; the diagnostics tracker does not (the
// rejoiner never hosts worker 0).
func captureRejoinCheckpoint(r *runner, policy SyncPolicy, step, rank int, ids []int) (*Checkpoint, error) {
	ck := &Checkpoint{
		Version:  checkpointVersion,
		Step:     step,
		Method:   policy.Name(),
		Model:    r.spec.Name,
		Seed:     r.cfg.Seed,
		Workers:  r.cl.N(),
		Dim:      r.cl.Dim(),
		Rank:     rank,
		Procs:    r.cl.Procs(),
		PSGlobal: append([]float64(nil), r.cl.PS.Global...),
		Policy:   capturePolicyState(policy),

		BestMetric: r.bestMetric,
		HaveBest:   r.haveBest,
		BestStep:   r.bestStep,
		SinceBest:  r.sinceBest,
		Stopped:    r.stop,
		Partial:    cloneResult(r.res),
	}
	for _, id := range ids {
		w := r.cl.LocalWorker(id)
		if w == nil {
			return nil, fmt.Errorf("train: rejoin transfer: worker %d is not hosted on this rank", id)
		}
		wc, err := captureWorker(r, w)
		if err != nil {
			return nil, err
		}
		ck.Hosted = append(ck.Hosted, wc)
	}
	if r.inj != nil {
		ck.InjCursors = append([]int(nil), r.injCursors...)
		ck.InjRNG = r.injRNG.State()
	}
	ck.SamplerCursors = captureSamplerCursors(r)
	return ck, nil
}

// restoreCheckpoint applies a checkpoint to a freshly constructed
// runner+policy pair (policy Init already ran) and returns the step the
// run continues from.
func restoreCheckpoint(r *runner, policy SyncPolicy, ck *Checkpoint) (int, error) {
	if ck == nil {
		return 0, fmt.Errorf("train: nil checkpoint")
	}
	if ck.Version != checkpointVersion {
		return 0, fmt.Errorf("train: checkpoint version %d, this build reads %d", ck.Version, checkpointVersion)
	}
	if ck.Dirty {
		return 0, fmt.Errorf("train: refusing to resume a dirty emergency checkpoint (captured mid-step after a fabric failure; resume from the last clean auto-checkpoint instead)")
	}
	switch {
	case ck.Method != policy.Name():
		return 0, fmt.Errorf("train: checkpoint method %q does not match policy %q", ck.Method, policy.Name())
	case ck.Model != r.spec.Name:
		return 0, fmt.Errorf("train: checkpoint model %q does not match config model %q", ck.Model, r.spec.Name)
	case ck.Seed != r.cfg.Seed:
		return 0, fmt.Errorf("train: checkpoint seed %d does not match config seed %d", ck.Seed, r.cfg.Seed)
	case ck.Workers != r.cl.N():
		return 0, fmt.Errorf("train: checkpoint has %d workers, config has %d", ck.Workers, r.cl.N())
	case ck.Dim != r.cl.Dim():
		return 0, fmt.Errorf("train: checkpoint dimension %d does not match model dimension %d", ck.Dim, r.cl.Dim())
	case ck.Rank != r.cl.Rank() || ck.Procs != r.cl.Procs():
		return 0, fmt.Errorf("train: checkpoint from rank %d/%d, resuming on rank %d/%d (rank layout must match)",
			ck.Rank, ck.Procs, r.cl.Rank(), r.cl.Procs())
	case len(ck.Hosted) != len(r.cl.Workers):
		return 0, fmt.Errorf("train: checkpoint hosts %d workers, this rank hosts %d", len(ck.Hosted), len(r.cl.Workers))
	case len(ck.PSGlobal) != r.cl.Dim():
		return 0, fmt.Errorf("train: checkpoint PS state has %d elements, want %d", len(ck.PSGlobal), r.cl.Dim())
	}
	for i, wc := range ck.Hosted {
		w := r.cl.Workers[i]
		if wc.ID != w.ID {
			return 0, fmt.Errorf("train: checkpoint worker %d at slot %d, this rank hosts worker %d", wc.ID, i, w.ID)
		}
		if len(wc.Params) != r.cl.Dim() {
			return 0, fmt.Errorf("train: worker %d checkpoint has %d parameters, want %d", wc.ID, len(wc.Params), r.cl.Dim())
		}
		if err := w.SetLayerRNG(wc.LayerRNG); err != nil {
			return 0, fmt.Errorf("train: worker %d checkpoint's WorkerCheckpoint.LayerRNG (absent from files written before the field existed, which cannot resume a model with stateful layers): %w", wc.ID, err)
		}
		co, ok := w.Optimizer.(opt.Checkpointable)
		if !ok {
			return 0, fmt.Errorf("train: worker %d's optimizer (%T) does not implement opt.Checkpointable", w.ID, w.Optimizer)
		}
		if err := co.SetState(wc.Opt); err != nil {
			return 0, fmt.Errorf("train: worker %d optimizer: %w", w.ID, err)
		}
		if err := w.Tracker.Restore(wc.Tracker); err != nil {
			return 0, fmt.Errorf("train: worker %d tracker: %w", w.ID, err)
		}
		if err := r.samplers[w.ID].SetCursor(wc.SamplerPos, wc.SamplerEp); err != nil {
			return 0, fmt.Errorf("train: worker %d sampler: %w", w.ID, err)
		}
		w.SetParams(wc.Params)
		w.Clock = wc.Clock
		w.Steps, w.LocalSteps, w.SyncSteps = wc.Steps, wc.LocalSteps, wc.SyncSteps
		w.Device.SetRNGState(wc.DeviceRNG)
		w.RNG.SetState(wc.WorkerRNG)
	}
	r.cl.PS.Global.CopyFrom(ck.PSGlobal)
	if len(ck.SamplerCursors) > 0 {
		if len(ck.SamplerCursors) != len(r.samplers) {
			return 0, fmt.Errorf("train: checkpoint carries %d sampler cursors, want %d", len(ck.SamplerCursors), len(r.samplers))
		}
		for i, c := range ck.SamplerCursors {
			if err := r.samplers[i].SetCursor(c.Pos, c.Epochs); err != nil {
				return 0, fmt.Errorf("train: worker %d sampler: %w", i, err)
			}
		}
	}
	if r.inj != nil {
		if len(ck.InjCursors) != len(r.injCursors) {
			return 0, fmt.Errorf("train: checkpoint has %d injection cursors, want %d", len(ck.InjCursors), len(r.injCursors))
		}
		copy(r.injCursors, ck.InjCursors)
		r.injRNG.SetState(ck.InjRNG)
	} else if len(ck.InjCursors) != 0 {
		return 0, fmt.Errorf("train: checkpoint carries injection state but the config has no injection")
	}
	if r.diagTracker != nil {
		if ck.DiagTracker == nil {
			return 0, fmt.Errorf("train: config tracks deltas but the checkpoint carries no diagnostics tracker")
		}
		if err := r.diagTracker.Restore(*ck.DiagTracker); err != nil {
			return 0, fmt.Errorf("train: diagnostics tracker: %w", err)
		}
	}
	if ck.Codec != nil {
		if err := r.cl.RestoreCodecSnapshot(ck.Codec); err != nil {
			return 0, err
		}
	} else if !r.cl.Codec().Nop() {
		return 0, fmt.Errorf("train: config uses codec %q but the checkpoint carries no codec state", r.cl.Codec())
	}
	if ck.Partial == nil {
		return 0, fmt.Errorf("train: checkpoint carries no partial result")
	}
	r.res = cloneResult(ck.Partial)
	r.bestMetric, r.haveBest = ck.BestMetric, ck.HaveBest
	r.bestStep, r.sinceBest = ck.BestStep, ck.SinceBest
	r.stop = ck.Stopped
	if err := restorePolicyState(policy, ck.Policy); err != nil {
		return 0, err
	}
	return ck.Step, nil
}

// cloneResult deep-copies a Result so checkpoints own their history.
func cloneResult(res *Result) *Result {
	out := *res
	out.History = append([]EvalPoint(nil), res.History...)
	out.Deltas = append([]float64(nil), res.Deltas...)
	out.Snapshots = make(map[int]Snapshot, len(res.Snapshots))
	for k, s := range res.Snapshots {
		out.Snapshots[k] = Snapshot{
			Step:   s.Step,
			Params: append([]float64(nil), s.Params...),
			Grads:  append([]float64(nil), s.Grads...),
		}
	}
	return &out
}

// Encode writes the checkpoint to w: a magic header followed by a gob
// stream.
func (c *Checkpoint) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(checkpointMagic); err != nil {
		return err
	}
	if err := gob.NewEncoder(bw).Encode(c); err != nil {
		return fmt.Errorf("train: encoding checkpoint: %w", err)
	}
	return bw.Flush()
}

// DecodeCheckpoint reads a checkpoint written by Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("train: reading checkpoint header: %w", err)
	}
	if string(magic) != string(checkpointMagic) {
		return nil, fmt.Errorf("train: not a selsync checkpoint (bad magic)")
	}
	ck := &Checkpoint{}
	if err := gob.NewDecoder(r).Decode(ck); err != nil {
		return nil, fmt.Errorf("train: decoding checkpoint: %w", err)
	}
	return ck, nil
}

// SaveCheckpoint writes the checkpoint to a file atomically: the bytes go
// to a temp file in the same directory, synced to stable storage, and the
// temp file is renamed over path only once it is complete. A crash at any
// point leaves either the previous file or the new one — never a
// truncated checkpoint that a later resume (or a -supervise restart
// scanning auto-checkpoints) would trip over. Every checkpoint sink in
// the tree — the auto-checkpoint supervisor files, emergency captures,
// final saves — funnels through here.
func SaveCheckpoint(path string, c *Checkpoint) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := c.Encode(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadCheckpoint reads a checkpoint file written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}
