package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {0.99, 4.96},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	if s[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {39, 0}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestGaugeScale(t *testing.T) {
	if got := geoMean(2, 8, 4); math.Abs(got-4) > 1e-12 {
		t.Errorf("geoMean(2, 8, 4) = %g, want 4", got)
	}
	g := &gauge{graph: samples{4e-3, 9e-3, 4e-3}, spmv: samples{1e-3}, chain: samples{2e-3, 2e-3}}
	// Medians 4, 1 and 2 ms: speed 2 ms, the reference.
	if got := g.speedScale(); math.Abs(got-gaugeReference/2e-3) > 1e-12 {
		t.Errorf("speedScale = %g, want %g", got, gaugeReference/2e-3)
	}
	if got := scaled(samples{1, 3}, 0.5); len(got) != 2 || got[0] != 0.5 || got[1] != 1.5 {
		t.Errorf("scaled = %v, want [0.5 1.5]", got)
	}
}

func TestGaugeKernels(t *testing.T) {
	g := newGauge()
	n := gaugeSide
	if len(g.best) != n*n*n || int(g.rowPtr[len(g.rowPtr)-1]) != n*n*n+6*n*n*(n-1) {
		t.Fatalf("gauge grid: %d vertices, %d entries", len(g.best), g.rowPtr[len(g.rowPtr)-1])
	}
	g.sweep2()
	// Vertex 0's distance-2 neighborhood, by brute force.
	want := g.prio[0]
	for p := g.rowPtr[0]; p < g.rowPtr[1]; p++ {
		u := g.col[p]
		for q := g.rowPtr[u]; q < g.rowPtr[u+1]; q++ {
			want = max(want, g.prio[g.col[q]])
		}
	}
	if g.best[0] != want {
		t.Errorf("sweep2: best[0] = %d, want %d", g.best[0], want)
	}
	g.sample()
	if len(g.graph) != 1 || len(g.spmv) != 1 || len(g.chain) != 1 || !(g.speed() > 0) {
		t.Errorf("gauge sample: %d/%d/%d samples, speed %g", len(g.graph), len(g.spmv), len(g.chain), g.speed())
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{10, 20}, {15, 30}, {40, 50}, {0, 5}, {55, 70}}
	// Clipped to [2, 60]: [2,5] + [10,30] + [40,50] + [55,60] = 3+20+10+5.
	if got := covered(iv, 2, 60); got != 38 {
		t.Errorf("covered = %d, want 38", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "krylov.cg", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sparse.spmv", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "amg.vcycle", Start: 30, End: 80},
		{ID: 4, Name: "krylov.cg", Start: 200, End: 300},
		{ID: 5, Parent: 4, Name: "amg.vcycle", Start: 210, End: 260},
		// Overlaps its sibling: covered once in the parent's self time,
		// but counted twice in the children's summed durations.
		{ID: 6, Parent: 4, Name: "sparse.spmv", Start: 250, End: 290},
	}
	lt := selfTimes(spans)
	cg := lt["krylov.cg"]
	if cg.Count != 2 || cg.Total != 200 || cg.Self != 30+20 || cg.Child != 70+90 {
		t.Errorf("krylov.cg = %+v, want count 2, total 200, self 50, child 160", *cg)
	}
	if v := lt["amg.vcycle"]; v.Total != 100 || v.Self != 100 {
		t.Errorf("amg.vcycle = %+v, want total 100 = self", *v)
	}
	share, ok := coverage(cg)
	if math.Abs(share-0.75) > 1e-12 || ok {
		t.Errorf("coverage = %g, %v; want 0.75, false (children overlap by 10 of 200)", share, ok)
	}
	share, ok = coverage(selfTimes(spans[:3])["krylov.cg"])
	if math.Abs(share-0.7) > 1e-12 || !ok {
		t.Errorf("coverage = %g, %v; want 0.7, true", share, ok)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	want := slices.Clone(workloads)
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, program has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, program has %v", names, want)
		}
	}
	for _, c := range []struct {
		decl []struct{ Name, Unit string }
		prog []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.decl) != len(c.prog) {
			t.Fatalf("%d metrics declared, program reports %d", len(c.decl), len(c.prog))
		}
		for i, m := range c.decl {
			if m.Name != c.prog[i].Name || m.Unit != c.prog[i].Unit {
				t.Errorf("metric %d: declared %s [%s], program %s [%s]", i, m.Name, m.Unit, c.prog[i].Name, c.prog[i].Unit)
			}
		}
	}
}

// TestSmoke runs every family at tiny size, untraced and traced, the
// one that is not a workload too: the outputs check out and every
// declared metric is reported.
func TestSmoke(t *testing.T) {
	for name, fam := range families {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 0.2, trace: trace, out: t.TempDir(), tiny: true}
			res, err := run(cfg, fam, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d metrics=%d/%d; failures: %q",
					name, trace, res.Correct, res.Failed, res.Attempted, len(res.Metrics), len(want), res.Failures)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	s := make(samples, 1000)
	for i := range s {
		s[i] = float64(i)
	}
	r := newReport()
	r.percentile("p", "ms", s, 99)
	if v := r.values["p"]; math.Abs(v.Value-quantile(s, 0.99)) > 1e-12 || v.Note != "p99" || v.Detail.N != 1000 {
		t.Errorf("p99 of 1000 samples = %+v", v)
	}
	// 200 samples leave ten beyond p95 but not beyond p99.
	r.percentile("p", "ms", s[:200], 99)
	if v := r.values["p"]; math.Abs(v.Value-quantile(s[:200], 0.95)) > 1e-12 || v.Note != "p95" {
		t.Errorf("p99 of 200 samples = %+v, want the p95 fallback", v)
	}
	r.percentile("p", "ms", s[:39], 99)
	if v := r.values["p"]; !math.IsNaN(v.Value) {
		t.Errorf("p99 of 39 samples = %+v, want NaN", v)
	}
}
