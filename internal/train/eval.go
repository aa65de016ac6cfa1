package train

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/data"
	"selsync/internal/nn"
	"selsync/internal/tensor"
)

// Test-set evaluation. A row's loss and hit depend on that row alone
// (nn.Network.EvaluateRows), so the test set is cut into fixed blocks that
// any replica on any rank may evaluate, and the per-row results are folded
// afterwards, in row order, exactly as one replica walking the set in
// Config.EvalChunk-sized passes folded them: the mean loss of each chunk,
// summed with its row count as weight. The fold is what History and every
// digest were recorded with, so it keeps that structure; the blocks are only
// how the work is handed out.

// evalBlock is the number of test examples one evaluation forward pass
// takes. A replica's activation buffers grow with it — at 256 a second
// replica per rank cost the benchmark's TCP workloads a third more resident
// memory, at 64 none — and 64 rows already amortize a layer call.
const evalBlock = 64

// evaluator evaluates one parameter vector, already present in its first
// replica, on a test set.
type evaluator struct {
	test       *data.Dataset
	chunk      int // examples per chunk of the fold (Config.EvalChunk)
	rpe        int // loss rows per example
	perplexity bool

	// rows holds the per-row results of the whole test set, block after
	// block: a block's losses, then its hits (window). Replicas write into
	// out, which is rows itself unless the blocks are sharded over ranks;
	// then out holds this rank's share and exchange completes rows.
	rows, out tensor.Vector
	sharded   bool
	// mine lists the blocks this rank evaluates. An evaluation runs on the
	// first active of reps: each goroutine that joins it takes the next
	// replica through slot, and the replicas claim through next the blocks
	// past the one each starts with.
	mine   []int
	reps   []*evalReplica
	active int
	slot   atomic.Int64
	next   atomic.Int64

	// The exchange's one contribution per round, bound into a stored closure
	// so that a round allocates nothing.
	id   [1]int
	src  tensor.Vector
	view func(int) tensor.Vector
}

// evalReplica is one network evaluating blocks, with its batch buffers.
// params is its parameter vector, which every replica past the first fills
// from the first's before it evaluates (nil on EvaluateDataset's lone
// replica, which arrives filled).
type evalReplica struct {
	net    nn.Network
	params tensor.Vector
	idx    []int
	x      *tensor.Matrix
	labels []int
}

// newEvaluator builds the evaluator of test, without a replica yet; every
// block is this rank's until shardOver says otherwise.
func newEvaluator(test *data.Dataset, chunk int, spec nn.ModelSpec) *evaluator {
	e := &evaluator{
		test:       test,
		chunk:      chunk,
		rpe:        test.LabelsPerExample(),
		perplexity: spec.Perplexity,
	}
	e.rows = tensor.NewVector(2 * test.N() * e.rpe)
	e.out = e.rows
	e.mine = make([]int, e.blocks())
	for b := range e.mine {
		e.mine[b] = b
	}
	e.view = func(int) tensor.Vector { return e.src }
	return e
}

func (e *evaluator) addReplica(net nn.Network, params tensor.Vector) {
	e.reps = append(e.reps, &evalReplica{net: net, params: params, idx: make([]int, 0, evalBlock)})
}

func (e *evaluator) blocks() int { return (e.test.N() + evalBlock - 1) / evalBlock }

// span returns the index range blocks [b0, b1) occupy in a result vector.
func (e *evaluator) span(b0, b1 int) (lo, hi int) {
	n := e.test.N()
	return 2 * e.rpe * min(b0*evalBlock, n), 2 * e.rpe * min(b1*evalBlock, n)
}

// window returns block b's loss and hit windows of the result vector v.
func (e *evaluator) window(v tensor.Vector, b int) (rowLoss, rowHit tensor.Vector) {
	lo, hi := e.span(b, b+1)
	mid := (lo + hi) / 2
	return v[lo:mid], v[mid:hi]
}

// shard returns the blocks [b0, b1) worker w of n evaluates when the test
// set is partitioned over worker ids: contiguous, near-equal runs.
func (e *evaluator) shard(w, n int) (b0, b1 int) {
	return w * e.blocks() / n, (w + 1) * e.blocks() / n
}

// shardOver partitions the blocks over the n global workers and keeps for
// this rank the blocks of the ids it hosts; exchange then has to run after
// every evaluation.
func (e *evaluator) shardOver(hosted []int, n int) {
	e.mine = e.mine[:0]
	for _, w := range hosted {
		for b, b1 := e.shard(w, n); b < b1; b++ {
			e.mine = append(e.mine, b)
		}
	}
	e.out = tensor.NewVector(len(e.rows))
	e.sharded = true
}

// start opens an evaluation of the parameters in the first replica on n
// replicas; join is then called n times or more, concurrently or not.
func (e *evaluator) start(n int) {
	e.active = n
	e.slot.Store(0)
	e.next.Store(int64(n))
}

// join takes the next free replica of the evaluation, if there is one, and
// evaluates this rank's blocks on it: the k-th for the k-th replica, then
// whichever are unclaimed. The fixed first block gives every replica work at
// every evaluation, so its buffers are grown after its first one whichever
// goroutines the scheduler favours; the claimed rest evens out a replica
// that loses its core. Concurrent replicas write disjoint windows of out.
func (e *evaluator) join() {
	k := int(e.slot.Add(1)) - 1
	if k >= e.active {
		return
	}
	rep := e.reps[k]
	if k > 0 {
		rep.params.CopyFrom(e.reps[0].params)
	}
	for i := k; i < len(e.mine); i = int(e.next.Add(1)) - 1 {
		b := e.mine[i]
		rep.idx = rep.idx[:0]
		for j, end := b*evalBlock, min((b+1)*evalBlock, e.test.N()); j < end; j++ {
			rep.idx = append(rep.idx, j)
		}
		rep.x, rep.labels = e.test.BatchInto(rep.x, rep.labels, rep.idx)
		rowLoss, rowHit := e.window(e.out, b)
		rep.net.EvaluateRows(rep.x, rep.labels, rowLoss, rowHit)
	}
}

// exchange completes rows on every rank of a sharded evaluation: per worker
// id, in ids order, the rows of its blocks travel as the one contribution of
// a diagnostic reduce round — the mean of one vector is that vector, bit for
// bit, and the ledger stays untouched (the idiom of the SSP loop).
func (e *evaluator) exchange(fabric comm.Fabric, ids []int) error {
	for _, w := range ids {
		lo, hi := e.span(e.shard(w, len(ids)))
		if lo == hi {
			continue // more workers than blocks
		}
		e.id[0], e.src = w, e.out[lo:hi]
		if err := fabric.ReduceMean(e.rows[lo:hi], e.id[:], e.view); err != nil {
			return fmt.Errorf("train: evaluation rows of worker %d: %w", w, err)
		}
	}
	return nil
}

// fold reduces rows to the mean loss and the spec's metric: top-K accuracy
// in percent for classifiers, perplexity (= exp loss) for language models.
func (e *evaluator) fold() (loss, metric float64) {
	chunkRows, totalRows := e.chunk*e.rpe, e.test.N()*e.rpe
	var total, sum float64
	var n, seen, correct int
	for b := 0; b < e.blocks(); b++ {
		rowLoss, rowHit := e.window(e.rows, b)
		for i, l := range rowLoss {
			sum += l
			if rowHit[i] != 0 {
				correct++
			}
			n++
			seen++
			if n == chunkRows || seen == totalRows {
				mean := sum / float64(n)
				total += mean * float64(n)
				sum, n = 0, 0
			}
		}
	}
	loss = total / float64(totalRows)
	if e.perplexity {
		return loss, math.Exp(loss)
	}
	return loss, 100 * float64(correct) / float64(totalRows)
}

// EvaluateDataset evaluates a network over a full dataset, returning mean
// loss and the spec's metric: top-K accuracy in percent for classifiers,
// perplexity (= exp loss) for language models. chunk is the fold's chunk
// size in examples (≤ 0: 256). It is a run's evaluation with one replica and
// one rank.
func EvaluateDataset(net nn.Network, d *data.Dataset, chunk int) (loss, metric float64) {
	if chunk <= 0 {
		chunk = 256
	}
	e := newEvaluator(d, chunk, net.Spec())
	e.addReplica(net, nil)
	e.start(1)
	e.join()
	return e.fold()
}

// initEval builds the run's evaluator on net, its first replica — never
// drawn: its parameters are overwritten before every read, and
// evaluation-mode forwards touch no layer stream. On a static multi-rank
// mesh the blocks are sharded over the worker ids; an elastic mesh keeps
// every block on every rank, since its hosted sets move while a view change
// is in flight.
func (r *runner) initEval(net *nn.FeedForwardNet) {
	r.eval = newEvaluator(r.cfg.Test, r.cfg.EvalChunk, r.spec)
	r.eval.addReplica(net, net.Arena().Data)
	if r.cl.Procs() > 1 && r.memb == nil {
		r.eval.shardOver(r.cl.Fabric().LocalWorkers(), r.cl.N())
	}
	r.evalFn = func(*cluster.Worker) { r.eval.join() }
}

// buildAside offers the build of an undrawn replica of f to a goroutine of
// its own, beside whatever the caller builds meanwhile. The returned
// function yields the replica: it builds it on the caller when the
// goroutine has not started on it yet (so it never waits on a goroutine
// that has not got a core), else waits for it, and re-raises a panic of
// the build. A goroutine that starts too late finds the build taken and
// exits; one whose result is never asked for ends with its build.
func buildAside(f nn.Factory) func() *nn.FeedForwardNet {
	var taken atomic.Bool
	var net *nn.FeedForwardNet
	var perr any
	done := make(chan struct{})
	build := func() {
		defer close(done)
		defer func() { perr = recover() }()
		net = f.Build(nil)
	}
	go func() {
		if taken.CompareAndSwap(false, true) {
			build()
		}
	}()
	return func() *nn.FeedForwardNet {
		if taken.CompareAndSwap(false, true) {
			build()
		}
		<-done
		if perr != nil {
			panic(perr)
		}
		return net
	}
}

func (r *runner) addEvalReplica() {
	net := r.cfg.Model.Build(nil)
	r.eval.addReplica(net, net.Arena().Data)
}

// evaluate evaluates the parameters in the first evaluation replica's arena
// (meanParams reduces into it) on the test set, returning mean loss and the
// model's metric. This rank's blocks run on up to min(GOMAXPROCS, hosted
// workers, blocks) replicas, the further ones built the first time they are
// wanted, each on one goroutine of the cluster's worker pool; a sharded
// evaluation then meets the other ranks in exchange, whose fabric error is
// the evaluation's.
func (r *runner) evaluate() (loss, metric float64, err error) {
	e := r.eval
	want := min(runtime.GOMAXPROCS(0), r.cl.LocalN(), len(e.mine))
	for len(e.reps) < want {
		r.addEvalReplica()
	}
	e.start(want)
	if want > 1 {
		r.cl.Each(r.evalFn)
	} else {
		e.join() // one replica, or no block of this rank's: no dispatch
	}
	if e.sharded {
		if err := e.exchange(r.cl.Fabric(), r.cl.AllWorkerIDs()); err != nil {
			return 0, 0, err
		}
	}
	loss, metric = e.fold()
	return loss, metric, nil
}
