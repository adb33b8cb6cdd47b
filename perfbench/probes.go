package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"mis2go/internal/hash"
	"mis2go/internal/mis"
	"mis2go/internal/par"
	"mis2go/internal/sparse"
)

// probes measures the layers no stage isolates: the par runtime's
// fork-join cost and the host's STREAM-style triad bandwidth.
func probes(rep *report, workers int, h host) {
	rt := par.New(workers)
	// Above the serial cutoff, so the loop is split across workers and
	// crosses one dispatch and one barrier.
	const n, calls = 1 << 16, 200
	body := func(lo, hi int) {}
	for i := 0; i < calls; i++ {
		rt.For(n, body)
	}
	var fj samples
	for r := 0; r < 25; r++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			rt.For(n, body)
		}
		fj.add(time.Since(t0).Seconds() / calls * 1e6)
	}
	rep.timing("par.fork_join_us", "us", fj)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 10*calls; i++ {
		rt.For(n, body)
	}
	runtime.ReadMemStats(&m1)
	rep.set("par.allocs_per_for", "count", float64(m1.Mallocs-m0.Mallocs)/(10*calls), fmt.Sprintf("%d workers", workers))

	gbps, arr := triad(workers, 10)
	note := fmt.Sprintf("3 arrays of %d MiB, %d workers; LLC %d MiB", arr>>20, workers, h.LLCBytes>>20)
	if !triadLeavesCache(h) {
		note += "; arrays < 4x LLC, so the triad may run from cache and no fraction-of-triad ratio is reported"
	}
	rep.set("host.triad_gbps", "GB/s", gbps, note)
}

// triadLeavesCache reports whether the triad arrays are at least four
// times the last-level cache, the STREAM sizing rule.
func triadLeavesCache(h host) bool {
	return h.LLCBytes > 0 && 3*triadArrayBytes >= 4*h.LLCBytes
}

// familyMIS2 times one MIS-2 pass at N workers on the coarsen graph of
// every family, workload or not, as mis.<family>_s: a gain on the
// high-degree Elasticity3D graph that costs the low-degree ones, or the
// reverse, shows side by side.
func familyMIS2(rep *report, workers int, seed uint64, tiny bool) {
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fam := families[n]
		s := fam.full.coarsen
		if tiny {
			s = fam.tiny.coarsen
		}
		g := fam.graph(s, s, s, seed)
		var t samples
		var first mis.Result
		for i := 0; i < 2*minRounds; i++ {
			var r mis.Result
			t.addDur(timedSpan(nil, 0, "", func() { r = mis.MIS2(g, mis.Options{Threads: workers}) }).wall, 1)
			if i == 0 {
				first = r
				rep.op(mis.CheckMIS2(g, r.InSet))
			} else if !slices.Equal(r.InSet, first.InSet) {
				rep.op(fmt.Errorf("MIS-2 on %s not deterministic across passes", n))
			}
		}
		rep.timing("mis."+n+"_s", "s", t)
		rep.note("family %s: MIS-2 graph of %d vertices, avg degree %.1f", n, g.N, g.AvgDegree())
	}
}

// fingerprints times hash.PatternFingerprint over the served patterns.
func fingerprints(rep *report, pats []*sparse.Matrix) {
	var us samples
	for r := 0; r < 5; r++ {
		for _, p := range pats {
			t0 := time.Now()
			hash.PatternFingerprint(p.Rows, p.Cols, p.RowPtr, p.Col)
			us.add(time.Since(t0).Seconds() * 1e6)
		}
	}
	rep.timing("hash.fingerprint_us", "us", us)
}

// reportTrace derives the per-layer self times and the coverage of the
// nested spans from everything the traced run recorded.
func reportTrace(rep *report, tr *tracer, h host) {
	lt := selfTimes(tr.snapshot())
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := lt[n]
		rep.note("span %-26s count %6d total %12s self %12s", n, l.Count, fmtDur(l.Total), fmtDur(l.Self))
	}
	// The serve phase spans tile their request by construction (see
	// serveStage.spans), so only the krylov nesting, whose children are
	// timed independently of their parent, has a coverage to report.
	share, ok := coverage(lt["krylov.cg"])
	rep.set("trace.krylov_coverage", "ratio", share,
		fmt.Sprintf("sparse.spmv* + amg.vcycle spans under krylov.cg; children+self reconcile with parent within 5%%: %v", ok))
	if triadLeavesCache(h) {
		rep.mu.Lock()
		spmv, triad := rep.values["sparse.spmv_gbps"], rep.values["host.triad_gbps"]
		rep.mu.Unlock()
		rep.set("sparse.spmv_frac_triad", "ratio", spmv.Value/triad.Value, "sparse.spmv_gbps / host.triad_gbps")
	}
}
