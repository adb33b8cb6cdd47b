// Command perfbench is the repository's benchmark. One run generates
// seeded inputs for one workload, drives every layer of the library
// through its public Go API (MIS-2, aggregation and cluster
// Gauss-Seidel setup; AMG setup and AMG-preconditioned CG; the solve
// service under a closed loop of clients), checks every output, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; with --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones from a traced run.
//
// Timing is taken only from outside, around calls into each package's
// exported functions. The end-to-end timings are the process's CPU
// time (see cost), scaled by a gauge of the host's speed (see gauge),
// with the wall times printed beside them. Build and run it from the
// repository root with perfbench/run.sh.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

func main() {
	var cfg config
	var trace int
	var seed int64
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "measurement time budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span dumps and result files")
	flag.BoolVar(&cfg.tiny, "tiny", false, "tiny inputs (smoke test)")
	flag.Parse()
	cfg.seed = uint64(seed)
	cfg.trace = trace == 1
	fam, ok := families[cfg.workload]
	ok = ok && slices.Contains(workloads, cfg.workload)
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	res, err := run(cfg, fam, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeJSON(os.Stdout, res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	tiny     bool
}

// segments is how many times an untraced run cycles through the
// stages. Other tenants of a shared host slow it down for seconds at a
// time; cycling spreads every stage's samples over the whole run, so
// such a stretch moves a few samples of each metric instead of all the
// samples of one.
const segments = 5

// setupsPerSegment is how many more set-ups (an AMG build and a cold
// pass of the service) a run times per segment, beyond the stages' own.
// They too are spread over the run; the median is reported.
const setupsPerSegment = 2

// run executes one workload: the coarsening, AMG-solve and serving
// stages on the workload's input family, each with a fixed share of the
// time budget. An untraced run cycles through the stages segments
// times; a traced run gives each stage its share once, half untraced
// and half traced, to compare the two.
func run(cfg config, fam family, w io.Writer) (result, error) {
	h := probeHost()
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "host %s\n", h)
	steal0, total0, statOK := hostCPUTicks()
	rep := newReport()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	coarsenShare, amgShare, serveShare := budget*30/100, budget*35/100, budget*35/100
	sz := fam.full
	if cfg.tiny {
		sz = fam.tiny
	}
	workers := runtime.GOMAXPROCS(0)
	minRequests := 1000
	if cfg.tiny {
		minRequests = 200
	}

	if cfg.trace {
		probes(rep, workers, h)
		familyMIS2(rep, workers, cfg.seed, cfg.tiny)
	}
	cs := newCoarsenStage(fam, sz, cfg.seed, workers, rep)
	as, err := newAMGStage(fam, sz, cfg.seed, workers, rep)
	if err != nil {
		return result{}, err
	}
	ss := newServeStage(fam, sz, cfg.seed, workers, rep, minRequests)
	g := newGauge()
	cs.gauge, as.gauge = g, g
	setups := func(n int) error {
		for i := 0; i < n; i++ {
			g.sample()
			if _, err := as.setup(rep); err != nil {
				return err
			}
			ss.setup(rep)
		}
		return nil
	}
	var cr coarsenRun
	var ar amgRun
	var sr serveRun
	if cfg.trace {
		if err := setups(segments * setupsPerSegment); err != nil {
			return result{}, err
		}
		cs.traced(rep, coarsenShare, tr)
		as.traced(rep, amgShare, tr)
		ss.traced(rep, serveShare, tr)
	} else {
		cls := ss.newClients()
		for i := 0; i < segments; i++ {
			if err := setups(setupsPerSegment); err != nil {
				return result{}, err
			}
			cs.pass(rep, &cr, coarsenShare/segments, nil)
			as.pass(rep, &ar, amgShare/segments, nil)
			// The last segment runs on until the loop has served
			// minRequests in all.
			need := 0
			if i == segments-1 {
				need = minRequests - sr.requests
			}
			g.sample()
			ss.pass(rep, ss.svc, cls, &sr, serveShare/segments, need, nil)
		}
	}
	g.sample()
	scale := g.report(rep)
	if !cfg.trace {
		cs.report(rep, &cr, scale)
		as.report(rep, &ar, scale)
		ss.report(rep, &sr, scale)
	}

	// The run's one-time set-up: the AMG hierarchy build plus the
	// service's cold pass, paired by repetition. setup_s is its CPU
	// time scaled by the gauge, setup_wall_s its wall time.
	rep.timing("amg.build_s", "s", as.build.wall)
	rep.timing("setup_heap_mb", "MB", as.heap)
	rep.timing("serve.cold_s", "s", ss.coldTimes.wall)
	var setup, setupWall samples
	for i := range as.build.cpu {
		setup.add((as.build.cpu[i] + ss.coldTimes.cpu[i]) * scale)
		setupWall.add(as.build.wall[i] + ss.coldTimes.wall[i])
	}
	rep.timing("setup_s", "s", setup)
	rep.timing("setup_wall_s", "s", setupWall)

	if steal1, total1, ok := hostCPUTicks(); ok && statOK && total1 > total0 {
		rep.note("host steal: %.1f%% of all CPUs' time during the run went to other tenants (/proc/stat)",
			100*float64(steal1-steal0)/float64(total1-total0))
	}

	specs := endToEnd
	if cfg.trace {
		specs = perLayer
		reportTrace(rep, tr, h)
		spans := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(spans); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(w, "spans written to %s\n", spans)
	}
	res := rep.finish(w, specs)
	file := filepath.Join(cfg.out, "results", fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace))
	full := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace, "host": h, "metrics": rep.full(), "result": res}
	if err := writeFile(file, full); err != nil {
		return result{}, fmt.Errorf("writing result file: %w", err)
	}
	fmt.Fprintf(w, "full result written to %s\n", file)
	return res, nil
}

// writeFile writes v as JSON to path, creating its directory.
func writeFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
