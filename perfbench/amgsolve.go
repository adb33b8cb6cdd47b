package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mis2go/internal/amg"
	"mis2go/internal/gen"
	"mis2go/internal/hash"
	"mis2go/internal/krylov"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

const (
	solveTol     = 1e-8
	solveMaxIter = 500
	numRHS       = 3
)

// amgStage is the time-to-solution stage: default smoothed-aggregation
// AMG (the paper's Table V Jacobi setup) built once, then CG to 1e-8 on
// seeded right-hand sides, at N workers and on a hierarchy built at 1.
// Setup is driven by MIS-2 aggregation and SpGEMM; the solve by V-cycle
// SpMV/Jacobi and CG. It bypasses serve.
type amgStage struct {
	a       *sparse.Matrix
	op      sparse.Operator
	h, h1   *amg.Hierarchy
	rhs     [][]float64
	workers int
	ws      *krylov.Workspace
	// gauge, when set, is sampled before every round.
	gauge *gauge
	// build holds the set-up costs of amg.Build at N workers, heap
	// the live heap each built hierarchy holds.
	build timing
	heap  samples
}

func newAMGStage(fam family, sz sizes, seed uint64, workers int, rep *report) (*amgStage, error) {
	s := sz.amg
	a := gen.WeightedLaplacian(fam.graph(s, s, s, seed), 0.05, seed^0x5eed)
	op, err := sparse.NewOperator(a, sparse.FormatAuto, 0)
	if err != nil {
		return nil, fmt.Errorf("amg stage operator: %w", err)
	}
	st := &amgStage{a: a, op: op, workers: workers, ws: krylov.NewWorkspace(a.Rows)}
	rng := seed*0x9e3779b97f4a7c15 + 1
	for j := 0; j < numRHS; j++ {
		b := make([]float64, a.Rows)
		for i := range b {
			rng = hash.Xorshift64Star(rng)
			b[i] = float64(int64(rng%2001)-1000) / 1000
		}
		st.rhs = append(st.rhs, b)
	}
	rep.note("amg system: %d rows, %d nnz, fine format %s", a.Rows, a.NNZ(), sparse.ChooseFormat(a))

	h, err := st.setup(rep)
	if err != nil {
		return nil, err
	}
	st.h = h
	h1, err := amg.Build(a, amg.Options{Threads: 1})
	rep.op(err)
	if err != nil {
		return nil, fmt.Errorf("amg.Build at 1 worker: %w", err)
	}
	st.h1 = h1
	rep.note("amg hierarchy: %d levels, operator complexity %.3f", st.h.NumLevels(), st.h.OperatorComplexity())
	return st, nil
}

// setup times one amg.Build at N workers, adding its cost to st.build
// and the live heap the hierarchy holds to st.heap.
func (st *amgStage) setup(rep *report) (*amg.Hierarchy, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var h *amg.Hierarchy
	var err error
	st.build.add(measure(func() { h, err = amg.Build(st.a, amg.Options{Threads: st.workers}) }))
	rep.op(err)
	if err != nil {
		return nil, fmt.Errorf("amg.Build: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st.heap.add((float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20))
	return h, nil
}

// amgRun holds one pass's samples and results.
type amgRun struct {
	solve, solveW1 timing
	iters          []int
	xhash          []uint64
	mallocs        samples // per N-worker solve
	sc             *spanCtx
}

// solveOnce runs one CG solve from a zero guess and checks it: converged,
// and the true residual, recomputed here, within tolerance.
// With a span context, the solve is recorded as a krylov.cg span that
// the traced operator and preconditioner attach their spans to.
func (st *amgStage) solveOnce(rt *par.Runtime, op sparse.Operator, m krylov.Preconditioner, b, x []float64, sc *spanCtx) (cost, krylov.Stats, error) {
	for i := range x {
		x[i] = 0
	}
	runtime.GC()
	if sc != nil {
		sc.parent = sc.t.reserve(0, sc.req, "krylov.cg")
	}
	var cs krylov.Stats
	var err error
	d := measure(func() { cs, err = krylov.CGWith(rt, op, b, x, solveTol, solveMaxIter, m, st.ws) })
	if sc != nil {
		sc.t.finish(sc.parent)
	}
	if err == nil && !cs.Converged {
		err = fmt.Errorf("CG reported not converged (relres %.3e)", cs.RelResidual)
	}
	if err == nil {
		if rel := trueResidual(st.a, b, x); !(rel <= solveTol) {
			err = fmt.Errorf("CG true residual %.3e above tolerance %.1e", rel, solveTol)
		}
	}
	return d, cs, err
}

// pass adds rounds to out until the budget is spent and out holds at
// least minRounds rounds. A traced pass must start from an empty
// out.
func (st *amgStage) pass(rep *report, out *amgRun, budget time.Duration, tr *tracer) {
	n := st.a.Rows
	x := make([]float64, n)
	rtN, rt1 := par.New(st.workers), par.New(1)
	op, m := st.op, krylov.Preconditioner(st.h)
	if tr != nil {
		out.sc = &spanCtx{t: tr}
		op = traceOperator(st.op, out.sc)
		m = tracePrec(st.h, "amg.vcycle", out.sc)
	}
	deadline := time.Now().Add(budget)
	for len(out.solve.wall) < minRounds || time.Now().Before(deadline) {
		round := len(out.solve.wall)
		st.gauge.sample()
		// One sample per round and worker count: the summed time of
		// the numRHS solves, so the reported time covers every
		// right-hand side.
		var roundN, round1 cost
		for j, b := range st.rhs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if tr != nil {
				out.sc.req = int64(round*numRHS + j)
			}
			d, cs, err := st.solveOnce(rtN, op, m, b, x, out.sc)
			runtime.ReadMemStats(&after)
			rep.op(err)
			roundN.add(d)
			out.mallocs.add(float64(after.Mallocs - before.Mallocs))
			if round == 0 {
				out.iters = append(out.iters, cs.Iterations)
				out.xhash = append(out.xhash, hashBits(x))
			} else if cs.Iterations != out.iters[j] || hashBits(x) != out.xhash[j] {
				rep.op(fmt.Errorf("CG solve %d not reproducible across rounds", j))
			}
			if tr != nil {
				continue
			}
			d, cs1, err := st.solveOnce(rt1, st.op, st.h1, b, x, nil)
			rep.op(err)
			round1.add(d)
			if cs1.Iterations != out.iters[j] || hashBits(x) != out.xhash[j] {
				rep.op(fmt.Errorf("CG solve %d differs between N and 1 workers", j))
			}
		}
		out.solve.add(roundN)
		if tr == nil {
			out.solveW1.add(round1)
		}
	}
}

// report reports the end-to-end metrics of an untraced run.
func (st *amgStage) report(rep *report, u *amgRun, scale float64) {
	rep.costs("solve", u.solve, scale)
	rep.costs("solve_w1", u.solveW1, scale)
	sum := 0
	for _, it := range u.iters {
		sum += it
	}
	rep.set("cg_iters", "count", float64(sum)/float64(len(u.iters)), "mean CG iterations over the right-hand sides")
}

// traced spends half the budget untraced and half traced, and reports
// the per-layer metrics.
func (st *amgStage) traced(rep *report, budget time.Duration, tr *tracer) {
	var u, t amgRun
	st.pass(rep, &u, budget/2, nil)
	st.layers(rep, tr)
	st.pass(rep, &t, budget/2, tr)
	for j := range u.iters {
		if t.iters[j] != u.iters[j] || t.xhash[j] != u.xhash[j] {
			rep.op(fmt.Errorf("traced CG solve %d differs from untraced (%d vs %d iterations)", j, t.iters[j], u.iters[j]))
		}
	}
	rep.set("trace.solve_overhead", "ratio", median(t.solve.wall)/median(u.solve.wall), "traced / untraced solve_s (wall)")
	rep.set("krylov.allocs_per_solve", "count", median(u.mallocs), "runtime Mallocs delta per CG solve at N workers")
	rep.set("amg.levels", "count", float64(st.h.NumLevels()), "")
	rep.set("amg.op_complexity", "ratio", st.h.OperatorComplexity(), "")

	spans := tr.snapshot()
	var cg, self, vc, spmv samples
	var vcTotal, cgTotal float64
	kids := children(spans)
	for _, s := range spans {
		switch s.Name {
		case "amg.vcycle":
			vc.addDur(s.dur(), 1e-3)
			vcTotal += s.dur().Seconds()
		case "sparse.spmv":
			spmv.addDur(s.dur(), 1)
		}
	}
	for _, s := range spans {
		if s.Name != "krylov.cg" {
			continue
		}
		it := t.iters[s.Req%numRHS]
		cg.add(s.dur().Seconds() * 1e3 / float64(max(it, 1)))
		self.add(selfTime(s, kids).Seconds())
		cgTotal += s.dur().Seconds()
	}
	rep.timing("krylov.iter_ms", "ms", cg)
	rep.timing("krylov.self_s", "s", self)
	rep.set("krylov.vcycle_share", "ratio", vcTotal/cgTotal, "V-cycle time / CG time")
	rep.timing("amg.vcycle_ms", "ms", vc)
	// Computed bytes of one CSR SpMV: 12 per entry (8-byte value, 4-byte
	// column), 8 per row pointer, and the x read and y write once each.
	// They are computed, not measured traffic.
	bytes := float64(12*st.a.NNZ() + 24*st.a.Rows)
	rep.set("sparse.spmv_gbps", "GB/s", bytes/median(spmv)/1e9,
		fmt.Sprintf("computed bytes %.0f per SpMV over median traced fine-level SpMV", bytes))
}

// layers times the AMG setup phases and the fine-level Galerkin
// product separately (traced run only).
func (st *amgStage) layers(rep *report, tr *tracer) {
	rt := par.New(st.workers)
	opt := amg.Options{Threads: st.workers}
	var sym, num, rap, refresh samples
	var hs *amg.Hierarchy
	for i := 0; i < 2; i++ {
		var err error
		sym.addDur(timedSpan(tr, int64(i), "amg.symbolic", func() { hs, err = amg.BuildSymbolic(st.a, opt) }).wall, 1)
		rep.op(err)
		if err != nil {
			return
		}
		num.addDur(timedSpan(tr, int64(i), "amg.numeric", func() { err = hs.BuildNumeric(st.a) }).wall, 1)
		rep.op(err)
	}
	l0 := st.h.Levels[0]
	if l0.P == nil {
		rep.op(fmt.Errorf("AMG hierarchy has a single level: no Galerkin product to time"))
		return
	}
	for i := 0; i < 3; i++ {
		var err error
		rap.addDur(timedSpan(tr, int64(i), "sparse.rap", func() { _, err = sparse.RAP(rt, l0.R, l0.A, l0.P) }).wall, 1)
		rep.op(err)
	}
	// Same-pattern new values: alternate a scaled copy and the original.
	a2 := st.a.Clone()
	a2.Scale(1.01)
	for i := 0; i < 4; i++ {
		a := a2
		if i%2 == 1 {
			a = st.a
		}
		var err error
		refresh.addDur(timedSpan(tr, int64(i), "amg.refresh", func() { err = hs.Refresh(a) }).wall, 1)
		rep.op(err)
	}
	rep.timing("amg.symbolic_s", "s", sym)
	rep.timing("amg.numeric_s", "s", num)
	rep.timing("sparse.rap_s", "s", rap)
	rep.timing("amg.refresh_s", "s", refresh)
}

// trueResidual returns ||b - A x|| / ||b||, computed here with a plain
// serial loop over the CSR arrays, independent of the library's kernels.
func trueResidual(a *sparse.Matrix, b, x []float64) float64 {
	var rr, bb float64
	for i := 0; i < a.Rows; i++ {
		ax := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			ax += a.Val[p] * x[a.Col[p]]
		}
		d := b[i] - ax
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

// hashBits fingerprints the exact bits of a solution vector (FNV-1a
// over the little-endian bytes; it allocates nothing, so it does not
// disturb the allocation counts around it).
func hashBits(x []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range x {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= (b >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}
