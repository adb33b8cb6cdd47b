package main

import (
	"fmt"
	"slices"
	"time"

	"mis2go/internal/coarsen"
	"mis2go/internal/gen"
	"mis2go/internal/graph"
	"mis2go/internal/gs"
	"mis2go/internal/mis"
	"mis2go/internal/sparse"
)

// coarsenStage measures the paper's own algorithms: MIS-2 (Algorithm 1)
// at N workers and at 1, MIS-2 aggregation (Algorithm 3) and cluster
// Gauss-Seidel setup (Algorithm 4's coloring). It never touches the
// sparse apply kernels, krylov or serve, so a change confined to those
// layers leaves its metrics flat.
type coarsenStage struct {
	g       *graph.CSR
	a       *sparse.Matrix
	workers int
	// gauge, when set, is sampled before every round.
	gauge *gauge
}

func newCoarsenStage(fam family, sz sizes, seed uint64, workers int, rep *report) *coarsenStage {
	s := sz.coarsen
	g := fam.graph(s, s, s, seed)
	rep.note("coarsen graph: %d vertices, %d edges, avg degree %.1f", g.N, g.NumEdges()/2, g.AvgDegree())
	return &coarsenStage{g: g, a: gen.WeightedLaplacian(g, 0.05, seed), workers: workers}
}

// coarsenRun holds one pass's samples and results.
type coarsenRun struct {
	mis2, mis2w1, agg, cgs timing
	iterations, setSize    int
	colors                 int
	quality                coarsen.QualityStats
	visits                 int
	coarseGraph            samples
}

// pass adds rounds to out until the budget is spent and out holds at
// least minRounds rounds.
func (st *coarsenStage) pass(rep *report, out *coarsenRun, budget time.Duration, tr *tracer) {
	deadline := time.Now().Add(budget)
	n := st.workers
	for len(out.mis2.wall) < minRounds || time.Now().Before(deadline) {
		round := len(out.mis2.wall)
		st.gauge.sample()
		var r, r1 mis.Result
		var agg coarsen.Aggregation
		var m *gs.Multicolor
		var err error
		out.mis2.add(timedSpan(tr, int64(round), "mis.mis2", func() {
			r = mis.MIS2(st.g, mis.Options{Threads: n, CollectStats: tr != nil})
		}))
		out.mis2w1.add(timedSpan(tr, int64(round), "mis.mis2_w1", func() { r1 = mis.MIS2(st.g, mis.Options{Threads: 1}) }))
		out.agg.add(timedSpan(tr, int64(round), "coarsen.mis2_aggregation", func() {
			agg = coarsen.MIS2Aggregation(st.g, coarsen.Options{Threads: n})
		}))
		out.cgs.add(timedSpan(tr, int64(round), "gs.new_cluster", func() { m, err = gs.NewCluster(st.a, agg, n) }))
		if tr != nil {
			out.coarseGraph.addDur(timedSpan(tr, int64(round), "coarsen.coarse_graph", func() { coarsen.CoarseGraph(st.g, agg) }).wall, 1)
		}

		// Outputs: the set is distance-2 maximal independent, identical
		// at 1 and N workers, and the aggregation is a valid partition
		// (checked in full on the first round, compared after).
		var misErr, aggErr error
		if round == 0 {
			misErr = mis.CheckMIS2(st.g, r.InSet)
			aggErr = coarsen.Check(st.g, agg)
			out.iterations, out.setSize = r.Iterations, len(r.InSet)
			out.quality = coarsen.Quality(st.g, agg)
			for i := range r.Worklist1 {
				out.visits += r.Worklist1[i] + r.Worklist2[i]
			}
		}
		rep.op(misErr)
		rep.op(sameSet(r, r1))
		rep.op(aggErr)
		if err == nil && out.colors != 0 && m.NumColors != out.colors {
			err = fmt.Errorf("cluster coloring changed between rounds: %d vs %d colors", m.NumColors, out.colors)
		}
		rep.op(err)
		if err == nil {
			out.colors = m.NumColors
		}
		if r.Iterations != out.iterations || len(r.InSet) != out.setSize {
			rep.op(fmt.Errorf("MIS-2 not deterministic across rounds"))
		}
	}
}

func sameSet(r, r1 mis.Result) error {
	if !slices.Equal(r.InSet, r1.InSet) || r.Iterations != r1.Iterations {
		return fmt.Errorf("MIS-2 differs between N and 1 workers (%d vs %d vertices)", len(r.InSet), len(r1.InSet))
	}
	return nil
}

// report reports the end-to-end metrics of an untraced run.
func (st *coarsenStage) report(rep *report, u *coarsenRun, scale float64) {
	rep.costs("mis2", u.mis2, scale)
	rep.costs("mis2_w1", u.mis2w1, scale)
	rep.costs("aggregate", u.agg, scale)
	rep.costs("clustergs_setup", u.cgs, scale)
}

// traced spends half the budget untraced and half traced, and reports
// the per-layer metrics.
func (st *coarsenStage) traced(rep *report, budget time.Duration, tr *tracer) {
	var u, t coarsenRun
	st.pass(rep, &u, budget/2, nil)
	st.pass(rep, &t, budget/2, tr)
	if t.iterations != u.iterations || t.setSize != u.setSize {
		rep.op(fmt.Errorf("traced MIS-2 differs from untraced: %d/%d iterations, %d/%d vertices",
			t.iterations, u.iterations, t.setSize, u.setSize))
	}
	rep.set("mis.iterations", "count", float64(t.iterations), "")
	rep.set("mis.set_size", "count", float64(t.setSize), "")
	rep.set("mis.worklist_visits", "count", float64(t.visits), "sum of Worklist1+Worklist2 over rounds")
	rep.set("mis.round_us", "us", median(t.mis2.wall)/float64(t.iterations)*1e6, "MIS-2 time at N workers / iterations")
	rep.set("mis.scale", "ratio", median(u.mis2w1.wall)/median(u.mis2.wall), "wall times: mis2_w1_s / mis2_s")
	rep.set("coarsen.aggregates", "count", float64(t.quality.NumAggregates), "")
	rep.set("coarsen.agg_size_max", "count", float64(t.quality.MaxSize), "")
	rep.timing("coarsen.coarse_graph_s", "s", t.coarseGraph)
	rep.set("color.colors", "count", float64(t.colors), "cluster-graph colors")
}
