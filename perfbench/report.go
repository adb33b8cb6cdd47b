package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// metricSpec declares one reported metric. The lists below are the
// benchmark's contract: BENCHMARK.json at the repository root declares
// the same names and units (the smoke test checks that they agree).
type metricSpec struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the library sees, reported by an
// untraced run of every workload. The timings are CPU times scaled by
// the run's gauge (see cost and gauge): setup_s and the *_cpu_s stage
// timings in seconds, serve_cpu_ms per served request. An untraced run
// also prints the wall times beside them, ungated.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"setup_heap_mb", "MB"},
	{"mis2_cpu_s", "s"},
	{"mis2_w1_cpu_s", "s"},
	{"aggregate_cpu_s", "s"},
	{"clustergs_setup_cpu_s", "s"},
	{"solve_cpu_s", "s"},
	{"solve_w1_cpu_s", "s"},
	{"cg_iters", "count"},
	{"serve_cpu_ms", "ms"},
}

// perLayer are the single-layer metrics, reported by a traced run.
var perLayer = []metricSpec{
	{"par.fork_join_us", "us"},
	{"par.allocs_per_for", "count"},
	{"hash.fingerprint_us", "us"},
	{"host.triad_gbps", "GB/s"},
	{"host.gauge_ms", "ms"},
	{"mis.iterations", "count"},
	{"mis.set_size", "count"},
	{"mis.worklist_visits", "count"},
	{"mis.round_us", "us"},
	{"mis.scale", "ratio"},
	{"mis.elasticity_s", "s"},
	{"mis.laplace_s", "s"},
	{"mis.randomfem_s", "s"},
	{"coarsen.aggregates", "count"},
	{"coarsen.agg_size_max", "count"},
	{"coarsen.coarse_graph_s", "s"},
	{"color.colors", "count"},
	{"sparse.spmv_gbps", "GB/s"},
	{"sparse.rap_s", "s"},
	{"amg.symbolic_s", "s"},
	{"amg.numeric_s", "s"},
	{"amg.refresh_s", "s"},
	{"amg.vcycle_ms", "ms"},
	{"amg.levels", "count"},
	{"amg.op_complexity", "ratio"},
	{"krylov.iter_ms", "ms"},
	{"krylov.self_s", "s"},
	{"krylov.vcycle_share", "ratio"},
	{"krylov.allocs_per_solve", "count"},
	{"serve.cold_s", "s"},
	{"serve.builds", "count"},
	{"serve.refreshes", "count"},
	{"serve.reuses", "count"},
	{"serve.evictions", "count"},
	{"serve.batch_cols_mean", "count"},
	{"serve.latency_p50_ms", "ms"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.throughput_rps", "req/s"},
	{"serve.latency_reuse_p50_ms", "ms"},
	{"serve.latency_refresh_p50_ms", "ms"},
	{"serve.latency_build_p50_ms", "ms"},
	{"serve.admission_wait_ms", "ms"},
	{"serve.coalesce_wait_ms", "ms"},
	{"serve.allocs_per_request", "count"},
	{"trace.solve_overhead", "ratio"},
	{"trace.latency_overhead", "ratio"},
	{"trace.krylov_coverage", "ratio"},
}

// value is one reported number with its unit and, for timings, the
// sample summary behind it.
type value struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Detail *summary `json:"detail,omitempty"`
	Note   string   `json:"note,omitempty"`
}

// report collects a run's metrics, operation counts and failures. It is
// safe for concurrent use (served requests report from client
// goroutines).
type report struct {
	mu        sync.Mutex
	values    map[string]value
	attempted int64
	failed    int64
	failures  []string
	notes     []string
}

func newReport() *report { return &report{values: make(map[string]value)} }

func (r *report) set(name, unit string, v float64, note string) {
	r.mu.Lock()
	r.values[name] = value{Value: v, Unit: unit, Note: note}
	r.mu.Unlock()
}

// timing reports the median of s as name, keeping the summary. An
// empty sample is reported as NaN, which finish counts as a failure.
func (r *report) timing(name, unit string, s samples) {
	if len(s) == 0 {
		r.set(name, unit, math.NaN(), "no samples")
		return
	}
	sm := summarize(s)
	r.mu.Lock()
	r.values[name] = value{Value: sm.Median, Unit: unit, Detail: &sm}
	r.mu.Unlock()
}

// percentile reports the p-th percentile of s as name, keeping the
// summary; when s is too small to leave ten samples beyond p, it
// reports the highest percentile that does (tailPercentile), and the
// note says which was taken.
func (r *report) percentile(name, unit string, s samples, p float64) {
	q := min(p, tailPercentile(len(s)))
	if q == 0 {
		r.set(name, unit, math.NaN(), fmt.Sprintf("n=%d: too few samples for any tail percentile", len(s)))
		return
	}
	sm := summarize(s)
	r.mu.Lock()
	r.values[name] = value{Value: quantile(s, q/100), Unit: unit, Detail: &sm, Note: fmt.Sprintf("p%g", q)}
	r.mu.Unlock()
}

// op counts one attempted operation and, when err is non-nil, one
// failure.
func (r *report) op(err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
	r.mu.Unlock()
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]gated `json:"metrics"`
	// Failures describes the first failed operations.
	Failures []string `json:"-"`
}

type gated struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the human-readable report and returns the result line
// holding exactly the metrics of specs. A metric that was not produced,
// or is not a finite number, is a failure of the run.
func (r *report) finish(w io.Writer, specs []metricSpec) result {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.values[n]
		extra := v.Note
		if v.Detail != nil {
			extra = v.Detail.String()
			if v.Note != "" {
				extra = v.Note + "; " + extra
			}
		}
		fmt.Fprintf(w, "metric %-30s %14.6g %-6s %s\n", n, v.Value, v.Unit, extra)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]gated)}
	for _, s := range specs {
		v, ok := r.values[s.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != s.Unit {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("metric %s missing or not finite", s.Name))
			continue
		}
		res.Metrics[s.Name] = gated{Value: v.Value, Unit: v.Unit}
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "metric %-30s %14.6g %-6s failed %d of %d operations\n", "failed_ratio", ratio, "ratio", r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	res.Failed = r.failed
	res.Failures = r.failures
	res.Attempted = max(r.attempted, 1)
	res.Correct = r.failed == 0
	return res
}

// fileValue is a value as the result file records it: JSON has no NaN
// or infinity, so a value that is not finite is written as null.
type fileValue struct {
	Value  *float64 `json:"value"`
	Unit   string   `json:"unit"`
	Detail *summary `json:"detail,omitempty"`
	Note   string   `json:"note,omitempty"`
}

// full returns every recorded value, for the result file.
func (r *report) full() map[string]fileValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]fileValue, len(r.values))
	for k, v := range r.values {
		fv := fileValue{Unit: v.Unit, Detail: v.Detail, Note: v.Note}
		if !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			fv.Value = &v.Value
		}
		out[k] = fv
	}
	return out
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	return enc.Encode(v)
}
