package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mis2go/internal/gen"
	"mis2go/internal/hash"
	"mis2go/internal/serve"
	"mis2go/internal/sparse"
)

const (
	// numPatterns is the size of the served pattern pool, twice the
	// service's default CacheCapacity of 8, so pattern switches evict
	// and force rebuilds.
	numPatterns = 16
	// coldPatterns is the number of patterns the cold pass caches: the
	// default CacheCapacity.
	coldPatterns = 8
)

// Step mix of a client, in percent: a switch to a (possibly uncached)
// pattern with new values, a refresh (same pattern, new values); the
// rest reuse the current values with a new right-hand side. Every block
// of 100 steps holds exactly this mix, in seeded order, so the work per
// request varies little from pass to pass and seed to seed.
const (
	switchPct  = 6
	refreshPct = 24
)

const (
	stepReuse = iota
	stepRefresh
	stepSwitch
)

// serveStage is a closed loop of nproc clients against one serve.Service
// with the default configuration. Each client is a time-stepping caller
// that waits for its reply before its next step. Clients share a pool
// of patterns larger than the cache, and a seeded schedule mixes reuse,
// refresh and pattern-switch steps, so the cache, refresh, coalescing
// and admission all work, with value writes (refresh/build) beside
// reads (reuse).
type serveStage struct {
	pats        []*sparse.Matrix
	workers     int
	seed        uint64
	minRequests int
	svc         *serve.Service
	// coldTimes holds the set-up costs of the cold passes (setup).
	coldTimes timing
}

func newServeStage(fam family, sz sizes, seed uint64, workers int, rep *report, minRequests int) *serveStage {
	st := &serveStage{workers: workers, seed: seed, minRequests: minRequests}
	s := sz.serve
	for k := 0; k < numPatterns; k++ {
		g := fam.graph(s, s, s+k, seed+uint64(k))
		st.pats = append(st.pats, gen.WeightedLaplacian(g, 0.05, seed*31+uint64(k)))
	}
	rep.note("served patterns: %d patterns of %d..%d rows", numPatterns, st.pats[0].Rows, st.pats[numPatterns-1].Rows)

	// This first service stays warm for the measured loop.
	st.svc = st.setup(rep)
	return st
}

// setup times one cold pass, until every initial pattern is cached, on
// a new service with the default configuration, adding its cost to
// st.coldTimes, and returns the service.
func (st *serveStage) setup(rep *report) *serve.Service {
	svc, c := st.cold(rep, serve.Config{})
	st.coldTimes.add(c)
	return svc
}

// cold sends one request per initial pattern from nproc concurrent
// clients to a new service and returns it with the pass's cost.
func (st *serveStage) cold(rep *report, cfg serve.Config) (*serve.Service, cost) {
	svc := serve.New(cfg)
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	c0, t0 := processCPU(), time.Now()
	for c := 0; c < st.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= coldPatterns {
					return
				}
				a := st.pats[k]
				b := make([]float64, a.Rows)
				for i := range b {
					b[i] = 1
				}
				x, rs, err := svc.Solve(context.Background(), a, b)
				rep.op(checkServed(a, b, x, rs, err))
			}
		}()
	}
	wg.Wait()
	return svc, cost{wall: time.Since(t0), cpu: processCPU() - c0}
}

// checkServed checks one served solve: no error, converged, and the true
// residual, recomputed here, within the service's default tolerance.
func checkServed(a *sparse.Matrix, b, x []float64, rs serve.RequestStats, err error) error {
	if err != nil {
		return fmt.Errorf("served solve: %w", err)
	}
	if !rs.Converged {
		return fmt.Errorf("served solve not converged (relres %.3e)", rs.RelResidual)
	}
	if rel := trueResidual(a, b, x); !(rel <= solveTol) {
		return fmt.Errorf("served solve (%d rows, outcome %s, batch of %d, reported relres %.3e, stats %+v) true residual %.3e above tolerance %.1e",
			a.Rows, rs.Outcome, rs.Batched, rs.RelResidual, rs.Columns, rel, solveTol)
	}
	return nil
}

// client is one time-stepping caller. All clients follow one schedule
// of patterns and values, drawn from the seed alone, each with its own
// right-hand sides: callers in step share an operator, so their
// requests can coalesce, and a caller a step ahead refreshes the values
// under one a step behind. A client's requests depend only on the seed
// and its index, so fresh clients replay the same steps.
type client struct {
	sched, rhs uint64
	// block holds the kinds of the current 100 steps; pos is the next.
	block [100]uint8
	pos   int
	pat   int
	scale float64
	mat   sparse.Matrix
	val   []float64
	b     []float64
}

// newClient starts on a pattern the cold pass did not cache, so the
// loop pays at least one build.
func newClient(seed uint64, id int) *client {
	return &client{
		sched: hash.Xorshift64Star(seed*0x2545f4914f6cdd1d + 1),
		rhs:   hash.Xorshift64Star(seed*0x9e3779b97f4a7c15 + uint64(id) + 1),
		pat:   coldPatterns,
		pos:   100,
	}
}

// step returns the kind of the client's next step.
func (c *client) step() uint8 {
	if c.pos == len(c.block) {
		for i := range c.block {
			switch {
			case i < switchPct:
				c.block[i] = stepSwitch
			case i < switchPct+refreshPct:
				c.block[i] = stepRefresh
			default:
				c.block[i] = stepReuse
			}
		}
		for i := len(c.block) - 1; i > 0; i-- {
			j := next64(&c.sched) % uint64(i+1)
			c.block[i], c.block[j] = c.block[j], c.block[i]
		}
		c.pos = 0
	}
	c.pos++
	return c.block[c.pos-1]
}

func next64(state *uint64) uint64 {
	*state = hash.Xorshift64Star(*state)
	return *state
}

// next prepares the client's next request in c.mat and c.b. A switch
// moves to the next pattern of the pool: the schedule walks the pool
// cyclically, and since it is twice the cache's capacity, the least
// recently used pattern is evicted and the walk keeps rebuilding.
func (c *client) next(pats []*sparse.Matrix) {
	kind := c.step()
	newValues := true
	switch {
	case c.mat.Val == nil:
	case kind == stepSwitch:
		c.pat = (c.pat + 1) % numPatterns
	case kind == stepRefresh:
	default:
		newValues = false
	}
	p := pats[c.pat]
	if newValues {
		// A uniform scaling keeps the matrix SPD and the pattern
		// unchanged, and changes every value.
		c.scale = 1 + float64(next64(&c.sched)%1000)/1e4
		if cap(c.val) < p.NNZ() {
			c.val = make([]float64, p.NNZ())
		}
		c.val = c.val[:p.NNZ()]
		for i, v := range p.Val {
			c.val[i] = v * c.scale
		}
		c.mat = sparse.Matrix{Rows: p.Rows, Cols: p.Cols, RowPtr: p.RowPtr, Col: p.Col, Val: c.val}
	}
	if cap(c.b) < p.Rows {
		c.b = make([]float64, p.Rows)
	}
	c.b = c.b[:p.Rows]
	for i := range c.b {
		c.b[i] = float64(int64(next64(&c.rhs)%2001)-1000) / 1000
	}
}

// phaseMarks records when a served request reached each FaultHook phase
// (0 = never), in tracer nanoseconds.
type phaseMarks struct {
	admitted, build, refresh, solve atomic.Int64
}

type reqKey struct{}

// markHook is the service's FaultHook in the traced pass: it stamps the
// request's phase marks and always returns nil, so it never changes
// what the service does.
func markHook(tr *tracer) func(serve.FaultPhase, context.Context) error {
	return func(p serve.FaultPhase, ctx context.Context) error {
		pm, _ := ctx.Value(reqKey{}).(*phaseMarks)
		if pm == nil {
			return nil
		}
		now := tr.now()
		switch p {
		case serve.FaultAdmitted:
			pm.admitted.Store(now)
		case serve.FaultBuild:
			pm.build.Store(now)
		case serve.FaultRefresh:
			pm.refresh.Store(now)
		case serve.FaultSolve:
			pm.solve.Store(now)
		}
		return nil
	}
}

// serveRun holds the samples and results of one or more passes.
type serveRun struct {
	latency   samples
	byOutcome map[serve.Outcome]samples
	admission samples // traced: request start to admitted mark, ms
	coalesce  samples // traced: admitted to solve mark of reused solves, ms
	requests  int
	wall      time.Duration
	cpu       time.Duration // the process's CPU time over the loop
	mallocs   uint64
	before    serve.Metrics // at the start of the first pass
	after     serve.Metrics // at the end of the last pass
	// xhash[c][k] fingerprints client c's k-th solution.
	xhash [][]uint64
}

// newClients returns the stage's clients, each at the start of its
// schedule.
func (st *serveStage) newClients() []*client {
	cls := make([]*client, st.workers)
	for c := range cls {
		cls[c] = newClient(st.seed, c)
	}
	return cls
}

// pass runs the closed loop of clients against svc until the budget is
// spent and at least minRequests requests completed, adding to out.
// The clients continue their schedules where the last pass left them.
func (st *serveStage) pass(rep *report, svc *serve.Service, cls []*client, out *serveRun, budget time.Duration, minRequests int, tr *tracer) {
	if out.byOutcome == nil {
		out.byOutcome = make(map[serve.Outcome]samples)
		out.xhash = make([][]uint64, st.workers)
		out.before = svc.Metrics()
	}
	lat := make([]samples, st.workers)
	outc := make([][]serve.Outcome, st.workers)
	adm := make([]samples, st.workers)
	coal := make([]samples, st.workers)
	var total, reqID atomic.Int64
	reqID.Store(int64(out.requests))
	var wg sync.WaitGroup
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(budget)
	c0, t0 := processCPU(), time.Now()
	for c, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) || total.Load() < int64(minRequests) {
				cl.next(st.pats)
				ctx := context.Background()
				var pm *phaseMarks
				if tr != nil {
					pm = &phaseMarks{}
					ctx = context.WithValue(ctx, reqKey{}, pm)
				}
				s0 := tr.now()
				q0 := time.Now()
				x, rs, err := svc.Solve(ctx, &cl.mat, cl.b)
				d := time.Since(q0)
				s1 := tr.now()
				total.Add(1)
				rep.op(checkServed(&cl.mat, cl.b, x, rs, err))
				lat[c].addDur(d, 1e-3)
				outc[c] = append(outc[c], rs.Outcome)
				out.xhash[c] = append(out.xhash[c], hashBits(x))
				if tr != nil {
					st.spans(tr, reqID.Add(1), s0, s1, pm)
					if a := pm.admitted.Load(); a != 0 {
						adm[c].add(float64(a-s0) / 1e6)
						if sv := pm.solve.Load(); sv != 0 && rs.Outcome == serve.OutcomeReuse {
							coal[c].add(float64(sv-a) / 1e6)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(t0), processCPU()-c0
	runtime.ReadMemStats(&m1)
	out.after = svc.Metrics()
	out.wall += wall
	out.cpu += cpu

	out.mallocs += m1.Mallocs - m0.Mallocs
	for c := range lat {
		out.latency = append(out.latency, lat[c]...)
		for k, o := range outc[c] {
			out.byOutcome[o] = append(out.byOutcome[o], lat[c][k])
		}
		out.admission = append(out.admission, adm[c]...)
		out.coalesce = append(out.coalesce, coal[c]...)
	}
	out.requests = len(out.latency)
}

// spans records one served request as a serve.request span whose
// children tile it by the FaultHook marks: admission (start to
// admitted), lookup (admitted to the first of build/refresh/solve),
// build or refresh (to the solve mark), then solve (the batch leader,
// from its solve mark) or coalesced (a follower, whose batch the leader
// solved).
func (st *serveStage) spans(tr *tracer, req, start, end int64, pm *phaseMarks) {
	root := tr.record(0, req, "serve.request", start, end)
	adm, build, refresh, solve := pm.admitted.Load(), pm.build.Load(), pm.refresh.Load(), pm.solve.Load()
	if adm == 0 {
		return
	}
	tr.record(root, req, "serve.admission", start, adm)
	cur, curName := adm, "serve.lookup"
	for _, m := range []struct {
		at   int64
		name string
	}{{build, "serve.build"}, {refresh, "serve.refresh"}} {
		if m.at != 0 {
			tr.record(root, req, curName, cur, m.at)
			cur, curName = m.at, m.name
		}
	}
	if solve != 0 {
		tr.record(root, req, curName, cur, solve)
		tr.record(root, req, "serve.solve", solve, end)
		return
	}
	if curName == "serve.lookup" {
		curName = "serve.coalesced"
	}
	tr.record(root, req, curName, cur, end)
}

// report reports the end-to-end metrics of an untraced run. Its p99
// needs minRequests (at least 1000 at full size) so that ten samples
// lie beyond it; percentile falls back below p99 otherwise.
func (st *serveStage) report(rep *report, u *serveRun, scale float64) {
	rep.set("serve_cpu_ms", "ms", ms(u.cpu)/float64(u.requests)*scale,
		fmt.Sprintf("process CPU time over %d requests of closed loop / requests, scaled by the gauge", u.requests))
	st.wallMetrics(rep, u, "")
}

// wallMetrics reports the closed loop's wall-time metrics, each name
// prefixed by prefix: median and p99 latency, and throughput.
func (st *serveStage) wallMetrics(rep *report, u *serveRun, prefix string) {
	rep.timing(prefix+"latency_p50_ms", "ms", u.latency)
	rep.percentile("serve.latency_p99_ms", "ms", u.latency, 99)
	rep.set(prefix+"throughput_rps", "req/s", float64(u.requests)/u.wall.Seconds(),
		fmt.Sprintf("%d requests over %.2f s of closed loop", u.requests, u.wall.Seconds()))
}

// traced runs an untraced pass and a traced pass of half the budget
// each, the traced one on a new service whose FaultHook marks the
// phases, and reports the per-layer metrics.
func (st *serveStage) traced(rep *report, budget time.Duration, tr *tracer) {
	fingerprints(rep, st.pats)
	var u, t serveRun
	st.pass(rep, st.svc, st.newClients(), &u, budget/2, st.minRequests, nil)
	st.wallMetrics(rep, &u, "serve.")
	svc, _ := st.cold(rep, serve.Config{FaultHook: markHook(tr)})
	st.pass(rep, svc, st.newClients(), &t, budget/2, st.minRequests/4, tr)
	for c := range u.xhash {
		for k := 0; k < min(len(u.xhash[c]), len(t.xhash[c])); k++ {
			if u.xhash[c][k] != t.xhash[c][k] {
				rep.op(fmt.Errorf("traced served solve (client %d, step %d) differs from untraced", c, k))
				break
			}
		}
	}
	b, a := u.before, u.after
	rep.set("serve.builds", "count", float64(a.Builds-b.Builds), "")
	rep.set("serve.refreshes", "count", float64(a.Refreshes-b.Refreshes), "")
	rep.set("serve.reuses", "count", float64(a.ValueHits-b.ValueHits), "")
	rep.set("serve.evictions", "count", float64(a.Evictions-b.Evictions), "")
	rep.set("serve.batch_cols_mean", "count", float64(a.BatchedRHS-b.BatchedRHS)/float64(a.BatchSolves-b.BatchSolves),
		"BatchedRHS / BatchSolves")
	rep.timing("serve.latency_reuse_p50_ms", "ms", u.byOutcome[serve.OutcomeReuse])
	rep.timing("serve.latency_refresh_p50_ms", "ms", u.byOutcome[serve.OutcomeRefresh])
	rep.timing("serve.latency_build_p50_ms", "ms", u.byOutcome[serve.OutcomeBuild])
	rep.timing("serve.admission_wait_ms", "ms", t.admission)
	rep.timing("serve.coalesce_wait_ms", "ms", t.coalesce)
	rep.set("serve.allocs_per_request", "count", float64(u.mallocs)/float64(u.requests), "runtime Mallocs delta over the loop / requests")
	rep.set("trace.latency_overhead", "ratio", median(t.latency)/median(u.latency), "traced / untraced latency_p50_ms")
	rep.note("serve passes: untraced %d requests in %.2f s, traced %d in %.2f s", u.requests, u.wall.Seconds(), t.requests, t.wall.Seconds())
}
