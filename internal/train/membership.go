package train

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"selsync/internal/cluster"
	"selsync/internal/comm"
)

// Elastic membership: the train-layer half of the degraded-mode protocol.
// A run with a membership plan (Config.Membership) or an elastic mesh
// fabric services membership transitions at every step boundary, before
// checkpoints and before the step executes:
//
//   - a *planned* transition (scripted in the plan) is applied SPMD by
//     every rank at the same boundary — a departing rank's workers are
//     re-materialized on rank 0 (adoption) or reset in place (loopback)
//     under the deterministic reconstruction recipe, so the degraded run's
//     digest is bit-identical across fabrics and repeats;
//   - an *unplanned* transition (heartbeat silence or a typed transport
//     fault promoted a rank to dead) is absorbed from the mesh view —
//     survival mode, not bit-reproducible against an undisturbed run;
//   - when the live-rank count drops below the quorum the boundary fails
//     with comm.ErrQuorumLost and the run takes the emergency-checkpoint
//     fault path.
//
// A rank that leaves per plan exits its step loop with ErrRankLeft; with
// WithRejoin it then blocks on the rank-0 state transfer (an encoded
// Checkpoint over MsgBlob frames) and re-enters the loop at its join
// boundary.

// ErrRankLeft reports that this rank departed the run at a scripted
// membership boundary. Job.Run returns it (with the partial Result) when
// the job was not configured to rejoin; supervisors map it to a relaunch
// with the -join flow rather than a gang restart.
var ErrRankLeft = errors.New("train: rank left the run at a membership boundary")

// MemberEvent is one scripted membership transition: rank leaves (or
// rejoins) at the boundary before the given step.
type MemberEvent struct {
	Step int
	Rank int
	Join bool
}

// MembershipPlan scripts planned elastic-membership transitions for a run.
// The textual grammar (Config.Membership) is semicolon-separated
// key=value tokens:
//
//	leave=R@S    rank R departs at the boundary before step S
//	join=R@S     rank R rejoins at the boundary before step S
//	quorum=K     continuation threshold (default ⌈P/2⌉+1)
//	procs=P      rank count, required on loopback (inferred from the mesh)
//
// Rank 0 hosts the parameter server and cannot leave. Events apply in
// step order; a join must follow a leave of the same rank.
type MembershipPlan struct {
	Events []MemberEvent
	Quorum int
	Procs  int
}

// ParseMembershipPlan parses the plan grammar. The empty string is a nil
// plan. Unknown keys and malformed tokens are rejected with an error
// naming the offending token.
func ParseMembershipPlan(s string) (*MembershipPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &MembershipPlan{}
	for _, tok := range strings.Split(s, ";") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("train: membership token %q is not key=value", tok)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "leave", "join":
			rs, ss, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("train: membership token %q: want %s=rank@step", tok, key)
			}
			rank, err := strconv.Atoi(rs)
			if err != nil {
				return nil, fmt.Errorf("train: membership token %q: bad rank %q", tok, rs)
			}
			step, err := strconv.Atoi(ss)
			if err != nil {
				return nil, fmt.Errorf("train: membership token %q: bad step %q", tok, ss)
			}
			if rank == 0 {
				return nil, fmt.Errorf("train: membership token %q: rank 0 hosts the parameter server and cannot %s", tok, key)
			}
			if rank < 0 {
				return nil, fmt.Errorf("train: membership token %q: rank must be non-negative", tok)
			}
			if step < 0 {
				return nil, fmt.Errorf("train: membership token %q: step must be non-negative", tok)
			}
			p.Events = append(p.Events, MemberEvent{Step: step, Rank: rank, Join: key == "join"})
		case "quorum":
			q, err := strconv.Atoi(val)
			if err != nil || q <= 0 {
				return nil, fmt.Errorf("train: membership token %q: quorum must be a positive integer", tok)
			}
			p.Quorum = q
		case "procs":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 1 {
				return nil, fmt.Errorf("train: membership token %q: procs must be an integer > 1", tok)
			}
			p.Procs = n
		default:
			return nil, fmt.Errorf("train: unknown membership key %q in token %q (known: leave, join, quorum, procs)", key, tok)
		}
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].Step < p.Events[j].Step })
	down := map[int]bool{}
	for _, ev := range p.Events {
		if ev.Join {
			if !down[ev.Rank] {
				return nil, fmt.Errorf("train: membership plan joins rank %d at step %d without a preceding leave", ev.Rank, ev.Step)
			}
			down[ev.Rank] = false
		} else {
			if down[ev.Rank] {
				return nil, fmt.Errorf("train: membership plan leaves rank %d twice (step %d)", ev.Rank, ev.Step)
			}
			down[ev.Rank] = true
		}
	}
	return p, nil
}

// membState tracks a run's membership: the plan cursor, the rank-level
// liveness this rank believes (mirroring the mesh view, or simulated
// arithmetic on loopback), and the quorum. Nil on a run without elastic
// membership — every hot path is gated on that nil.
type membState struct {
	plan   *MembershipPlan
	mesh   *comm.Mesh // nil in a single process, which simulates the ranks
	procs  int
	nlocal int
	quorum int
	idx    int // next unprocessed plan event
	alive  []bool
	epoch  uint64 // planned-transition epoch: the 1-based plan event index
}

// membership resolves what makes a run elastic from its Config alone: the
// parsed plan, the multi-rank mesh behind Config.Fabric (nil in a single
// process — a one-rank fabric has no peers to lose, so the run mirrors the
// plan's rank layout arithmetically), and whether the run is elastic at
// all: a plan with events, or, on a mesh, Config.Quorum or an
// already-elastic fabric.
func (c Config) membership() (plan *MembershipPlan, mesh *comm.Mesh, elastic bool, err error) {
	if plan, err = ParseMembershipPlan(c.Membership); err != nil {
		return nil, nil, false, err
	}
	if m, ok := c.Fabric.(*comm.Mesh); ok && m.Procs() > 1 {
		mesh = m
	}
	elastic = plan != nil && len(plan.Events) > 0
	if mesh != nil && (mesh.Elastic() || c.Quorum != 0) {
		elastic = true
	}
	return plan, mesh, elastic, nil
}

// newMembState builds the membership state for a run, or nil when the run
// is not elastic (no plan, and no elastic mesh). Structural mistakes
// panic — Job.Run converts construction panics into errors.
func newMembState(cfg Config, cl *cluster.Cluster) *membState {
	plan, mesh, elastic, err := cfg.membership()
	if err != nil {
		panic(err)
	}
	if !elastic {
		return nil
	}
	if mesh == nil && plan.Procs == 0 {
		panic("train: a loopback membership plan needs procs=P to mirror the rank layout")
	}
	procs := cl.Procs()
	if mesh == nil {
		procs = plan.Procs
	}
	if plan != nil && plan.Procs != 0 && plan.Procs != procs {
		panic(fmt.Sprintf("train: membership plan procs=%d but the fabric has %d ranks", plan.Procs, procs))
	}
	if cl.N()%procs != 0 {
		panic(fmt.Sprintf("train: %d workers not divisible over %d membership ranks", cl.N(), procs))
	}
	if plan != nil {
		for _, ev := range plan.Events {
			if ev.Rank >= procs {
				panic(fmt.Sprintf("train: membership plan names rank %d but the run has %d ranks", ev.Rank, procs))
			}
		}
	}
	quorum := cfg.Quorum
	if quorum == 0 && plan != nil {
		quorum = plan.Quorum
	}
	if quorum <= 0 {
		quorum = comm.DefaultQuorum(procs)
	}
	m := &membState{
		plan: plan, mesh: mesh,
		procs: procs, nlocal: cl.N() / procs,
		quorum: quorum, alive: make([]bool, procs),
	}
	for i := range m.alive {
		m.alive[i] = true
	}
	if mesh != nil {
		// Validate refuses a plan next to a codec; Config.Quorum or an
		// already-elastic fabric makes a run elastic without one.
		if !cl.Codec().Nop() {
			panic("train: payload codecs require static membership (the run is elastic: Config.Quorum or an elastic fabric)")
		}
		mesh.EnableElastic(quorum)
		m.quorum = mesh.Quorum()
	}
	return m
}

// live counts the ranks this rank believes alive.
func (m *membState) live() int {
	n := 0
	for _, a := range m.alive {
		if a {
			n++
		}
	}
	return n
}

// blockIDs returns the global worker ids of a rank's static block.
func (m *membState) blockIDs(rank int) []int {
	ids := make([]int, m.nlocal)
	for i := range ids {
		ids[i] = rank*m.nlocal + i
	}
	return ids
}

// viewEpoch returns the epoch ViewChangeEvent reports: the mesh view epoch
// when there is a mesh, the planned-transition epoch on loopback.
func (m *membState) viewEpoch() uint64 {
	if m.mesh != nil {
		return m.mesh.ViewEpoch()
	}
	return m.epoch
}

// viewCost is the virtual cost of one membership transition.
func (r *runner) viewCost() float64 {
	return r.cl.Network.ViewChange(r.memb.procs)
}

// serviceMembership runs the membership boundary before `step`: planned
// transitions at this step, absorption of unplanned mesh-view changes,
// then the quorum check. A quorum failure wraps comm.ErrQuorumLost (the
// engine takes the fault path); a planned self-departure returns
// ErrRankLeft (the engine exits cleanly for the rejoin flow).
func (r *runner) serviceMembership(step int, policy SyncPolicy) error {
	m := r.memb
	if err := r.applyPlanned(step, policy); err != nil {
		return err
	}
	r.absorbUnplanned(step)
	if live := m.live(); live < m.quorum {
		return fmt.Errorf("train: %d live ranks below quorum %d at step %d: %w",
			live, m.quorum, step, comm.ErrQuorumLost)
	}
	return nil
}

// applyPlanned processes every plan event due at this boundary, in plan
// order, SPMD across the surviving ranks.
func (r *runner) applyPlanned(step int, policy SyncPolicy) error {
	m := r.memb
	if m.plan == nil {
		return nil
	}
	for m.idx < len(m.plan.Events) && m.plan.Events[m.idx].Step <= step {
		ev := m.plan.Events[m.idx]
		m.idx++
		m.epoch = uint64(m.idx)
		var err error
		if ev.Join {
			err = r.applyJoin(ev, step, policy)
		} else {
			err = r.applyLeave(ev, step)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// applyLeave executes one planned departure. The departing rank marks
// itself dead and exits with ErrRankLeft; survivors remove it from the
// view, re-materialize its workers (rank-0 adoption, or an in-place
// loopback reset — the same reconstruction recipe, so the fabrics stay
// bit-identical), and meet at a barrier priced as one view change.
func (r *runner) applyLeave(ev MemberEvent, step int) error {
	m := r.memb
	m.alive[ev.Rank] = false
	if m.mesh != nil && m.mesh.Rank() == ev.Rank {
		m.mesh.MarkDead(ev.Rank)
		return ErrRankLeft
	}
	if m.mesh != nil {
		m.mesh.MarkDead(ev.Rank)
		if m.mesh.Rank() == 0 {
			r.cl.AdoptWorkers(m.blockIDs(ev.Rank), m.epoch)
		}
		m.mesh.AdoptRank(ev.Rank)
	} else {
		r.cl.ResetWorkers(m.blockIDs(ev.Rank), m.epoch)
	}
	r.emitViewChange(step, ev.Rank, false)
	return r.cl.Barrier(r.viewCost())
}

// applyJoin executes one planned readmission. Rank 0 streams the current
// state of the rejoiner's workers over the wire (an encoded Checkpoint —
// the PR 5 codec — as MsgBlob frames) and releases its adopted replicas;
// every survivor re-admits the rank to the view; the rejoiner meets them
// at the barrier from awaitRejoin. On loopback the reset replicas simply
// keep training — arithmetic is unchanged on both fabrics.
func (r *runner) applyJoin(ev MemberEvent, step int, policy SyncPolicy) error {
	m := r.memb
	m.alive[ev.Rank] = true
	if m.mesh != nil {
		if m.mesh.Rank() == 0 {
			ids := m.blockIDs(ev.Rank)
			ck, err := captureRejoinCheckpoint(r, policy, step, ev.Rank, ids)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := ck.Encode(&buf); err != nil {
				return err
			}
			if err := m.mesh.SendBlob(ev.Rank, buf.Bytes()); err != nil {
				return err
			}
			r.cl.ReleaseWorkers(ids)
		}
		m.mesh.MarkAlive(ev.Rank)
	}
	r.emitViewChange(step, ev.Rank, true)
	return r.cl.Barrier(r.viewCost())
}

// absorbUnplanned reconciles this rank's liveness with the mesh view:
// rank 0 first promotes heartbeat suspects to (announced) dead, then any
// rank the view newly reports dead is adopted exactly like a planned
// departure — except without a barrier, since the surviving ranks learn
// of an unplanned death at different boundaries. Survival mode: the run
// keeps stepping, but is not bit-reproducible against an undisturbed one.
func (r *runner) absorbUnplanned(step int) {
	m := r.memb
	if m.mesh == nil {
		return
	}
	if m.mesh.Rank() == 0 {
		for _, s := range m.mesh.TakeSuspects() {
			if s != 0 {
				m.mesh.MarkDeadAnnounced(s)
			}
		}
	}
	v := m.mesh.CurrentView()
	if v.Alive == nil {
		return
	}
	for rk := 1; rk < m.procs && rk < len(v.Alive); rk++ {
		switch {
		case m.alive[rk] && !v.Alive[rk]:
			m.alive[rk] = false
			if m.mesh.Rank() == 0 {
				r.cl.AdoptWorkers(m.blockIDs(rk), v.Epoch)
			}
			m.mesh.AdoptRank(rk)
			r.emitViewChange(step, rk, false)
		case !m.alive[rk] && v.Alive[rk]:
			m.alive[rk] = true
		}
	}
}

// emitViewChange delivers a ViewChangeEvent (nil-guarded like every
// event).
func (r *runner) emitViewChange(step, rank int, join bool) {
	if r.obs == nil {
		return
	}
	m := r.memb
	r.obs.OnEvent(ViewChangeEvent{
		Step: step, Epoch: m.viewEpoch(), Rank: rank, Join: join,
		Live: m.live(), Quorum: m.quorum,
	})
}

// replayStructural applies the structural side of the next plan events —
// for as long as more(index, event) holds — without emitting events or
// barriers. It is how a rank catches up on transitions it did not live
// through: a resumed run must reconstruct the membership topology — view,
// adoption overlay, rank-0's adopted replicas — before restoreCheckpoint
// overwrites the worker state, and a rejoining rank must agree with the
// survivors' view before it meets them at the join barrier. On loopback
// only the plan cursor and liveness advance (the worker set is static and
// restore rewrites it wholesale).
func (r *runner) replayStructural(more func(i int, ev MemberEvent) bool) {
	m := r.memb
	if m == nil || m.plan == nil {
		return
	}
	for m.idx < len(m.plan.Events) && more(m.idx, m.plan.Events[m.idx]) {
		ev := m.plan.Events[m.idx]
		m.idx++
		m.epoch = uint64(m.idx)
		m.alive[ev.Rank] = ev.Join
		if m.mesh == nil {
			continue
		}
		if ev.Join {
			if m.mesh.Rank() == 0 {
				r.cl.ReleaseWorkers(m.blockIDs(ev.Rank))
			}
			m.mesh.MarkAlive(ev.Rank)
		} else {
			m.mesh.MarkDead(ev.Rank)
			if m.mesh.Rank() == 0 {
				r.cl.AdoptWorkers(m.blockIDs(ev.Rank), m.epoch)
			}
			m.mesh.AdoptRank(ev.Rank)
		}
	}
}
