package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"selsync/internal/comm"
	"selsync/internal/tensor"
)

// span is one timed interval of a traced run. Parent indexes the same
// rank's span list (-1: no parent); times are nanoseconds since the trace
// began. A span's self time is its duration minus its children's.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Step   int    `json:"step"`
}

func (s span) dur() int64 { return s.End - s.Start }

// rankTrace records the spans of one rank. The rank's training goroutine
// makes every observer, fabric and endpoint call, so spans nest on one
// stack and need no lock.
type rankTrace struct {
	Rank  int    `json:"rank"`
	Spans []span `json:"spans"`

	t0   time.Time
	open []int
}

func newRankTrace(rank int, t0 time.Time) *rankTrace {
	return &rankTrace{Rank: rank, t0: t0}
}

func (t *rankTrace) begin(name string, step int) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.Spans)
	t.Spans = append(t.Spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Step: step})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *rankTrace) end(id int) {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order (open %v)", id, t.open))
	}
	t.open = t.open[:n-1]
	t.Spans[id].End = int64(time.Since(t.t0))
}

// step returns the step of the innermost open span: collectives and frames
// inherit it from the step or eval span they run under.
func (t *rankTrace) step() int {
	if n := len(t.open); n > 0 {
		return t.Spans[t.open[n-1]].Step
	}
	return -1
}

// selfTimes returns each span's duration minus its direct children's.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// spanTotals sums durations, self times and counts by span name.
type spanTotals struct {
	busy, self map[string]int64
	calls      map[string]int
}

func totals(spans []span) spanTotals {
	t := spanTotals{busy: map[string]int64{}, self: map[string]int64{}, calls: map[string]int{}}
	self := selfTimes(spans)
	for i, s := range spans {
		t.busy[s.Name] += s.dur()
		t.self[s.Name] += self[i]
		t.calls[s.Name]++
	}
	return t
}

// tracedFabric times every collective the cluster issues. It embeds
// CodecFabric (both backends implement it) so the cluster's codec path is
// taken exactly as on the bare fabric.
type tracedFabric struct {
	comm.CodecFabric
	tr *rankTrace
}

func (f *tracedFabric) ReduceMean(dst tensor.Vector, ids []int, view func(int) tensor.Vector) error {
	id := f.tr.begin("reduce", f.tr.step())
	defer f.tr.end(id)
	return f.CodecFabric.ReduceMean(dst, ids, view)
}

func (f *tracedFabric) ReduceMeanCodec(dst, ref tensor.Vector, ids []int, view func(int) tensor.Vector) error {
	id := f.tr.begin("reduce", f.tr.step())
	defer f.tr.end(id)
	return f.CodecFabric.ReduceMeanCodec(dst, ref, ids, view)
}

func (f *tracedFabric) ReduceMeanCodecBuckets(dst, ref tensor.Vector, ids []int, view func(int) tensor.Vector, buckets [][2]int, wait func(int)) error {
	id := f.tr.begin("reduce", f.tr.step())
	defer f.tr.end(id)
	return f.CodecFabric.ReduceMeanCodecBuckets(dst, ref, ids, view, buckets, wait)
}

func (f *tracedFabric) FanOut(dsts []tensor.Vector, src tensor.Vector) {
	id := f.tr.begin("fanout", f.tr.step())
	defer f.tr.end(id)
	f.CodecFabric.FanOut(dsts, src)
}

func (f *tracedFabric) AllGatherFlags(flags []bool) error {
	id := f.tr.begin("flags", f.tr.step())
	defer f.tr.end(id)
	return f.CodecFabric.AllGatherFlags(flags)
}

func (f *tracedFabric) MaxFloat(x float64) (float64, error) {
	id := f.tr.begin("maxfloat", f.tr.step())
	defer f.tr.end(id)
	return f.CodecFabric.MaxFloat(x)
}

// tracedEndpoint times the frames a mesh moves: send is the time to encode
// and write one frame, recv the time blocked until the peer's next frame
// arrived (the peer's compute skew plus the wire).
type tracedEndpoint struct {
	comm.Endpoint
	tr *rankTrace
}

func (e *tracedEndpoint) Send(to int, f *comm.Frame) error {
	id := e.tr.begin("send", e.tr.step())
	defer e.tr.end(id)
	return e.Endpoint.Send(to, f)
}

func (e *tracedEndpoint) Recv(from int) (*comm.Frame, error) {
	id := e.tr.begin("recv", e.tr.step())
	defer e.tr.end(id)
	return e.Endpoint.Recv(from)
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Env      environment  `json:"environment"`
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Ranks    []*rankTrace `json:"ranks"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
