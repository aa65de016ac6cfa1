// Package comm is the communication subsystem of the SelSync reproduction:
// a transport-agnostic stack that moves flat tensors, SelSync significance
// flags and control messages between training ranks.
//
// It is layered:
//
//   - Frame / wire codec (frame.go, codec_wire.go): versioned
//     length-prefixed binary frames with chunked tensor streaming, dense
//     and compressed.
//   - Endpoint (endpoint.go, tcp.go): point-to-point send/recv of frames
//     between ranks, with two backends — in-process channels and a TCP full
//     mesh with persistent, reused connections. collectives.go holds the
//     two tensor-stream helpers every collective is built from.
//   - Mesh (mesh.go, reduce.go): the one Fabric. The reduce round averages
//     one contribution per worker in worker-id order over the whole vector
//     and delivers the mean to every rank, by one of three routes: the
//     relay (a dense round on a static mesh) passes the running sum from
//     rank to rank, each folding its own workers in; the exchange (a lossy
//     round) sends every compressed contribution to every rank, and each
//     folds them and compresses the mean on its own replica of the
//     downlink error feedback; the gather (a dense round on an elastic
//     mesh, and nothing else) collects the contributions at rank 0, which
//     plays the parameter server. The SelSync one-bit flags allgather, the
//     clock maximum and broadcast-by-fan-out complete the set. A payload
//     codec is a parameter of that same round, not a separate collective.
//   - Fabric (this file): the interface internal/cluster drives its
//     synchronization rounds through. NewLoopback is a Mesh with one rank —
//     every worker is hosted by rank 0, so each round runs its rank-0
//     branch alone: direct shared-memory kernels, no frames, no wire
//     buffers, zero allocations in steady state. NewMesh over TCP endpoints
//     runs the identical rounds across OS processes.
//
// Traffic accounting: a Fabric counts the *logical* parameter-server
// protocol — one push per contributing worker, one pull per receiving
// worker, with byte sizes computed from the wire codec (TensorWireBytes, or
// the payload codec's exact sizes) — identically on every rank and for
// every rank count, whichever route a round takes. That is what the
// experiment reports need (it is the traffic the modeled PS tier absorbs),
// and it is what makes loopback and TCP runs comparable. The bytes that
// actually crossed sockets are tracked separately per Endpoint (NetStats).
package comm

import (
	"selsync/internal/tensor"
)

// Stats is a fabric's logical traffic ledger, from the parameter server's
// perspective: pushes arrive (BytesRecv), pulls depart (BytesSent).
// Identical on every rank of a run, and across rank counts for identical
// collective sequences.
type Stats struct {
	Pushes int // worker→PS messages
	Pulls  int // PS→worker messages
	Bytes  struct{ Recv, Sent int64 }

	FlagRounds int   // SelSync flags-allgather rounds
	FlagBytes  int64 // logical bytes of those rounds (FlagsWireBytes)
}

// Fabric is the backend internal/cluster executes synchronization rounds
// through. *Mesh is the implementation: one rank in a single process
// (NewLoopback), several over an Endpoint such as TCP (NewMesh).
//
// Collective calls (the Reduce* family, SetCodec, AllGatherFlags, MaxFloat)
// must be made by every rank of the fabric with matching arguments, in the
// same order — the SPMD contract of every collective library.
//
// Collectives report transport failures as typed errors (wrapping
// ErrPeerDown / ErrTimeout / ErrCrashed, with peer context in *PeerError)
// instead of panicking. A collective that returned a non-nil error leaves
// the fabric broken: the SPMD ranks are no longer aligned, and the only
// safe operations afterwards are rank-local reads and Close.
type Fabric interface {
	// Rank is this process's rank; Procs the process count.
	Rank() int
	Procs() int
	// Workers is the global worker count; Hosts reports whether this rank
	// hosts the given global worker id; LocalWorkers lists hosted ids in
	// ascending order.
	Workers() int
	Hosts(worker int) bool
	LocalWorkers() []int

	// ReduceMean averages one vector per id in ids — each rank supplies
	// views for the ids it hosts via view — into dst, leaving the
	// bit-identical mean on every rank. The reduction always folds in ids
	// order with the shared tensor.Average kernel, so the result does not
	// depend on the process count. It is the diagnostic read (evaluation
	// means, snapshots): always dense, whatever codec is installed, and it
	// leaves the ledger untouched.
	ReduceMean(dst tensor.Vector, ids []int, view func(worker int) tensor.Vector) error
	// ReduceMeanCodec is the same round as parameter-server traffic: it
	// runs through the installed payload codec and writes the ledger —
	// len(ids) pushes of the codec's uplink bytes and Workers() pulls of
	// its downlink bytes. Under the identity codec (the default) the
	// values, the wire bytes and the ledger are exactly the dense round's.
	// Under a lossy codec each contribution is compressed with per-worker
	// error feedback, decoded, averaged in ids order, and the mean is
	// compressed again for the downlink; a non-nil ref then makes the
	// messages deltas against it and dst = ref + decoded-mean-delta (the
	// parameter path), while a nil ref sends the raw vectors (the gradient
	// path). ref must not alias dst or any view; the identity codec never
	// reads it.
	ReduceMeanCodec(dst, ref tensor.Vector, ids []int, view func(worker int) tensor.Vector) error
	// ReduceMeanCodecBuckets calls wait, when non-nil, once per bucket
	// index in descending order, then runs one ReduceMeanCodec round. The
	// buckets no longer cut the round: the bits and the ledger are
	// ReduceMeanCodec's over the whole vector.
	ReduceMeanCodecBuckets(dst, ref tensor.Vector, ids []int, view func(worker int) tensor.Vector, buckets [][2]int, wait func(bucket int)) error
	// FanOut copies src into every locally hosted destination (the PS
	// pull). src must already be rank-identical — in the cluster protocol
	// it always is, because it is either the initial snapshot or a reduce
	// result. No ledger entry (the reduce that produced src accounted the
	// pulls). Purely local, hence no error.
	FanOut(dsts []tensor.Vector, src tensor.Vector)
	// AllGatherFlags exchanges the one-bit significance votes: on entry
	// each rank has filled flags[id] for its hosted ids; on return flags
	// holds every worker's vote on every rank.
	AllGatherFlags(flags []bool) error
	// MaxFloat returns the global maximum of x across ranks (virtual-clock
	// reduction).
	MaxFloat(x float64) (float64, error)

	// SetCodec installs (and across ranks negotiates) the payload codec
	// ReduceMeanCodec runs through. Must be called before the first
	// collective that uses it, with an identical codec on every rank;
	// elastic membership and payload codecs are mutually exclusive.
	SetCodec(c Codec) error
	// Codec returns the installed codec (the identity codec if none).
	Codec() Codec
	// CodecSnapshot captures this rank's error-feedback state (hosted
	// uplink residuals, this rank's replica of the downlink residual, and
	// the shared round counter) for bit-identical checkpoint/resume.
	// Returns nil under the identity codec, which has none.
	CodecSnapshot() *CodecSnapshot
	// RestoreCodecSnapshot reinstates a captured state. The snapshot's
	// spec must match the installed codec, and a snapshot past round 0
	// must carry the downlink replica (ErrSnapshotNoDownlink).
	RestoreCodecSnapshot(s *CodecSnapshot) error

	// AccountPush / AccountPull record n point-to-point PS messages of dim
	// elements that bypassed the collective entry points (SSP's push/pull
	// pairs).
	AccountPush(n, dim int)
	AccountPull(n, dim int)
	Stats() *Stats

	// Close releases transport resources. Across processes it runs a
	// drain barrier first, so no rank tears sockets down under a peer
	// still reading.
	Close() error
}

// CodecFabric is the historical name of the codec half of Fabric, from
// when the codec collectives were an optional extension discovered by type
// assertion. Every Fabric carries them now.
type CodecFabric = Fabric

// NewLoopback builds the single-process fabric over n workers: a Mesh with
// one rank. Nothing ever crosses its endpoint, so it owns no inbox and no
// wire scratch — building one per job segment costs a few small structs.
func NewLoopback(n int) *Mesh {
	m, err := NewMesh(NewLoopbackEndpoints(1)[0], n)
	if err != nil {
		panic("comm: loopback fabric needs at least one worker")
	}
	return m
}
