package main

// Tracing for the per-layer pass. Spans are recorded from the benchmark's
// own code around its calls into each layer's public functions, kept in
// memory and written out at the end of the run. A layer's self time is the
// duration of its spans minus the part covered by child spans of another
// layer; child spans of the same layer (one per task or per worker, possibly
// concurrent) carry detail only. Kernel time measured by timedGroup is
// reported on its own and never added into the layer sums.

import (
	"encoding/json"
	"math/big"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"dragoon/internal/group"
)

// layer indexes the program layers a traced pass attributes time to.
type layer int

const (
	layerOther layer = iota // the benchmark's own glue between calls
	layerSetup
	layerRequester
	layerHarvest
	layerWorker
	layerChain
	layerAudit
	layerObserver
	layerService
	numLayers
)

var layerNames = [numLayers]string{
	"other", "market.setup", "protocol.requester", "protocol.harvest", "protocol.worker",
	"chain", "market.audit", "contract.observer", "service",
}

// span is one recorded interval. Times are nanoseconds from the tracer's
// start.
type span struct {
	Name   string `json:"name"`
	Layer  layer  `json:"-"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Task   string `json:"task,omitempty"`
	Round  int    `json:"round"`
}

// tracer records spans and per-layer counters for the traced passes of one
// run.
type tracer struct {
	t0    time.Time
	group group.Group // the timed backend the traced passes run on

	mu    sync.Mutex
	spans []span

	// cur is the layer the benchmark's goroutine is inside; kernel calls
	// (from any goroutine the layer fans out to) are charged to it.
	cur atomic.Int32

	allocs [numLayers]uint64 // heap bytes allocated inside each layer

	varmuls                         [numLayers]atomic.Int64
	varmulNs, unmarshNs             atomic.Int64
	tableBuilds, tableNs, fixedMuls atomic.Int64

	sample []metrics.Sample
}

// newTracer returns a tracer whose group decorates inner. The decorated
// group is warmed up like the plain one, so the traced passes do not pay
// for process-wide tables the untraced passes found ready.
func newTracer(inner group.Group) (*tracer, error) {
	tr := &tracer{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	tr.group = newTimedGroup(inner, tr)
	if err := warmUp(tr.group); err != nil {
		return nil, err
	}
	tr.tableBuilds.Store(0)
	tr.tableNs.Store(0)
	tr.fixedMuls.Store(0)
	return tr, nil
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) heapAllocs() uint64 {
	metrics.Read(tr.sample)
	return tr.sample[0].Value.Uint64()
}

// begin opens a span; parent is a span index or -1.
func (tr *tracer) begin(name string, l layer, parent int, taskID string, round int) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Layer: l, Start: tr.now(), End: -1, Parent: parent, Task: taskID, Round: round})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) {
	now := tr.now()
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

// enter opens a layer-level span on the benchmark's goroutine, points
// kernel attribution at the layer, and returns a closer that also charges
// the heap bytes allocated meanwhile to the layer.
func (tr *tracer) enter(l layer, name string, parent int, round int) (int, func()) {
	prev := layer(tr.cur.Swap(int32(l)))
	a0 := tr.heapAllocs()
	id := tr.begin(name, l, parent, "", round)
	return id, func() {
		tr.end(id)
		tr.allocs[l] += tr.heapAllocs() - a0
		tr.cur.Store(int32(prev))
	}
}

// selfTimes returns each layer's self time in nanoseconds over the spans
// recorded so far, and the total duration of the root spans (parent -1).
func (tr *tracer) selfTimes() (self [numLayers]int64, wall int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	covered := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 && tr.spans[s.Parent].Layer != s.Layer {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range tr.spans {
		d := s.End - s.Start
		if s.Parent < 0 {
			wall += d
		}
		if s.Parent >= 0 && tr.spans[s.Parent].Layer == s.Layer {
			continue
		}
		self[s.Layer] += d - covered[i]
	}
	return self, wall
}

// write stores the spans as JSON in dir (best effort: the trace file is a
// by-product, the metrics are the result).
func (tr *tracer) write(dir, name string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	type out struct {
		span
		LayerName string `json:"layer"`
	}
	rows := make([]out, len(tr.spans))
	for i, s := range tr.spans {
		rows[i] = out{span: s, LayerName: layerNames[s.Layer]}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return
	}
	_ = os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// timedGroup decorates a group backend: it times the variable-base and
// decoding kernels and the fixed-base table builds, counts variable-base
// multiplications per layer and fixed-base ones per table, and forwards
// every call unchanged. It implements
// the FixedBaser and Hasher extensions of the backends it wraps, and
// MultiScalarMuler through timedMSMGroup when the backend has it, so no
// code path changes under it.
type timedGroup struct {
	group.Group
	tr *tracer
}

type timedMSMGroup struct{ *timedGroup }

func (g timedMSMGroup) MultiScalarMul(points []group.Element, scalars []*big.Int) group.Element {
	return g.Group.(group.MultiScalarMuler).MultiScalarMul(points, scalars)
}

// newTimedGroup wraps inner, which must implement FixedBaser and Hasher.
func newTimedGroup(inner group.Group, tr *tracer) group.Group {
	if _, ok := inner.(group.FixedBaser); !ok {
		panic("perfbench: group backend without fixed-base tables")
	}
	if _, ok := inner.(group.Hasher); !ok {
		panic("perfbench: group backend without hash-to-group")
	}
	g := &timedGroup{Group: inner, tr: tr}
	if _, ok := inner.(group.MultiScalarMuler); ok {
		return timedMSMGroup{g}
	}
	return g
}

func (g *timedGroup) ScalarMul(a group.Element, k *big.Int) group.Element {
	t := time.Now()
	e := g.Group.ScalarMul(a, k)
	g.tr.varmulNs.Add(int64(time.Since(t)))
	g.tr.varmuls[g.tr.cur.Load()].Add(1)
	return e
}

func (g *timedGroup) Unmarshal(data []byte) (group.Element, error) {
	t := time.Now()
	e, err := g.Group.Unmarshal(data)
	g.tr.unmarshNs.Add(int64(time.Since(t)))
	return e, err
}

func (g *timedGroup) HashToElement(tag []byte) (group.Element, error) {
	return g.Group.(group.Hasher).HashToElement(tag)
}

func (g *timedGroup) PrecomputeFixedBase(base group.Element) group.FixedBase {
	t := time.Now()
	fb := g.Group.(group.FixedBaser).PrecomputeFixedBase(base)
	g.tr.tableBuilds.Add(1)
	g.tr.tableNs.Add(int64(time.Since(t)))
	return timedFixedBase{fb: fb, tr: g.tr}
}

// timedFixedBase counts the multiplications served from one table.
type timedFixedBase struct {
	fb group.FixedBase
	tr *tracer
}

func (f timedFixedBase) Mul(k *big.Int) group.Element {
	f.tr.fixedMuls.Add(1)
	return f.fb.Mul(k)
}

func (f timedFixedBase) MulMany(ks []*big.Int) []group.Element {
	f.tr.fixedMuls.Add(int64(len(ks)))
	return f.fb.MulMany(ks)
}

func (f timedFixedBase) MulManyAdd(ks []*big.Int, addends []group.Element) []group.Element {
	f.tr.fixedMuls.Add(int64(len(ks)))
	return f.fb.MulManyAdd(ks, addends)
}
