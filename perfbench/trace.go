package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// span is one timed interval recorded around a call into a layer.
// Spans of one request (or one solve) share Req; Parent is the id of the
// span that caused this one, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end
// of the run. A nil *tracer records nothing, so untraced code paths pay
// one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns nanoseconds since the tracer's epoch (monotonic clock),
// or 0 for a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// timedSpan runs f after a garbage collection, so that collection work
// left over from earlier operations is not charged to f, and returns
// its cost. With a tracer it also records f as a root span.
func timedSpan(tr *tracer, req int64, name string, f func()) cost {
	runtime.GC()
	s0 := tr.now()
	c := measure(f)
	tr.record(0, req, name, s0, tr.now())
	return c
}

// record appends a finished span and returns its id.
func (t *tracer) record(parent, req int64, name string, start, end int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// reserve allocates an id for a span whose end is not known yet (a
// parent that must exist before its children are recorded); finish
// fills it in.
func (t *tracer) reserve(parent, req int64, name string) int64 {
	if t == nil {
		return 0
	}
	return t.record(parent, req, name, t.now(), 0)
}

func (t *tracer) finish(id int64) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi]. Overlapping children (concurrent spans) count once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	c := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range c {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTime is the aggregate of all spans of one name.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of (duration - children's covered time)
	Child time.Duration // sum of children's durations (not deduplicated)
}

// children groups the spans' intervals by the id of their parent.
func children(spans []span) map[int64][][2]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	return kids
}

// selfTime is s's duration minus the part of its interval that its
// children (from children) cover.
func selfTime(s span, kids map[int64][][2]int64) time.Duration {
	return time.Duration(s.End - s.Start - covered(kids[s.ID], s.Start, s.End))
}

// selfTimes aggregates spans by name, with each span's selfTime.
func selfTimes(spans []span) map[string]*layerTime {
	kids := children(spans)
	kidSum := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kidSum[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += selfTime(s, kids)
		lt.Child += time.Duration(kidSum[s.ID])
	}
	return out
}

// coverage reports, over all spans named parent, the share of their
// time that their children cover (union of child intervals), and
// whether the children's summed durations plus the parent's self time
// reconcile with the parent's duration to within 5% (they do unless
// children overlap or run outside their parent).
func coverage(lt *layerTime) (share float64, reconciled bool) {
	if lt == nil || lt.Total <= 0 {
		return 0, false
	}
	share = float64(lt.Total-lt.Self) / float64(lt.Total)
	sum := float64(lt.Child + lt.Self)
	diff := sum/float64(lt.Total) - 1
	return share, diff <= 0.05 && diff >= -0.05
}

// spanCtx carries the tracer and the parent span of a call chain, so
// wrappers know where to attach their spans.
type spanCtx struct {
	t      *tracer
	req    int64
	parent int64
}

// tracedOp wraps a sparse.Operator, recording one span per kernel call.
// Every method forwards to the wrapped operator unchanged, so results
// are bitwise identical to calling it directly.
type tracedOp struct {
	op  sparse.Operator
	ctx *spanCtx
}

func (o *tracedOp) span(name string, start int64) {
	o.ctx.t.record(o.ctx.parent, o.ctx.req, name, start, o.ctx.t.now())
}

func (o *tracedOp) Dims() (int, int) { return o.op.Dims() }
func (o *tracedOp) NNZ() int         { return o.op.NNZ() }
func (o *tracedOp) SpMV(rt *par.Runtime, x, y []float64) {
	t0 := o.ctx.t.now()
	o.op.SpMV(rt, x, y)
	o.span("sparse.spmv", t0)
}
func (o *tracedOp) SpMVResidual(rt *par.Runtime, b, x, r []float64) {
	t0 := o.ctx.t.now()
	o.op.SpMVResidual(rt, b, x, r)
	o.span("sparse.spmv_residual", t0)
}
func (o *tracedOp) SpMVAdd(rt *par.Runtime, x, y []float64) {
	t0 := o.ctx.t.now()
	o.op.SpMVAdd(rt, x, y)
	o.span("sparse.spmv_add", t0)
}
func (o *tracedOp) SpMM(rt *par.Runtime, k int, x, y []float64) {
	t0 := o.ctx.t.now()
	o.op.SpMM(rt, k, x, y)
	o.span("sparse.spmm", t0)
}
func (o *tracedOp) DiagonalInto(rt *par.Runtime, d []float64) {
	t0 := o.ctx.t.now()
	o.op.DiagonalInto(rt, d)
	o.span("sparse.diagonal", t0)
}
func (o *tracedOp) JacobiSweep(rt *par.Runtime, b, dinv []float64, omega float64, src, dst []float64) {
	t0 := o.ctx.t.now()
	o.op.JacobiSweep(rt, b, dinv, omega, src, dst)
	o.span("sparse.jacobi", t0)
}

// tracedFillerOp is tracedOp for operators that also implement
// sparse.ValueFiller.
type tracedFillerOp struct {
	tracedOp
	fill sparse.ValueFiller
}

func (o *tracedFillerOp) FillValues(a *sparse.Matrix) error { return o.fill.FillValues(a) }

// traceOperator wraps op so that it implements exactly the optional
// interfaces op implements.
func traceOperator(op sparse.Operator, ctx *spanCtx) sparse.Operator {
	if f, ok := op.(sparse.ValueFiller); ok {
		return &tracedFillerOp{tracedOp: tracedOp{op: op, ctx: ctx}, fill: f}
	}
	return &tracedOp{op: op, ctx: ctx}
}

// tracedPrec wraps a krylov.Preconditioner, recording one span per
// application under the layer name given.
type tracedPrec struct {
	m    krylov.Preconditioner
	name string
	ctx  *spanCtx
}

func (p *tracedPrec) Precondition(r, z []float64) {
	t0 := p.ctx.t.now()
	p.m.Precondition(r, z)
	p.ctx.t.record(p.ctx.parent, p.ctx.req, p.name, t0, p.ctx.t.now())
}

// tracedBatchPrec is tracedPrec for preconditioners that also implement
// krylov.BatchPreconditioner, keeping CGBatch's batched path visible.
type tracedBatchPrec struct {
	tracedPrec
	bm krylov.BatchPreconditioner
}

func (p *tracedBatchPrec) PreconditionBatch(r, z []float64, k int) {
	t0 := p.ctx.t.now()
	p.bm.PreconditionBatch(r, z, k)
	p.ctx.t.record(p.ctx.parent, p.ctx.req, p.name+"_batch", t0, p.ctx.t.now())
}

func tracePrec(m krylov.Preconditioner, name string, ctx *spanCtx) krylov.Preconditioner {
	if bm, ok := m.(krylov.BatchPreconditioner); ok {
		return &tracedBatchPrec{tracedPrec: tracedPrec{m: m, name: name, ctx: ctx}, bm: bm}
	}
	return &tracedPrec{m: m, name: name, ctx: ctx}
}

func fmtDur(d time.Duration) string { return fmt.Sprintf("%.3f ms", d.Seconds()*1e3) }
