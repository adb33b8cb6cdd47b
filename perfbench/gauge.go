package main

import (
	"fmt"
	"math"
)

// gauge follows how fast the host runs during a run. It times three
// fixed kernels of the benchmark's own, on an input that depends
// neither on the workload nor on the seed, so no change to the library
// moves it: a distance-2 sweep over a 7-point grid graph (integer
// gathers, as in MIS-2 and aggregation), a CSR matrix-vector product
// over the same grid (floating-point gathers, as in the solve) and a
// floating-point dependency chain (compute only).
//
// A shared host runs the same code at different speeds for minutes at
// a time, in CPU time too: another tenant on the same core or cache
// slows loads, and a whole run can fall in such a stretch. The gated
// timings are CPU times scaled by gaugeReference / speed(), so they
// read as CPU time on the host at its reference speed. The three
// kernels slow by different factors in such a stretch (the gathers up
// to 2x, the chain barely), and so do the library's calls, in between;
// their geometric mean follows the library's calls closely enough to
// halve the run-to-run spread of the gated timings where the host's
// speed moved.
type gauge struct {
	rowPtr []int32
	col    []int32
	val    []float64
	prio   []uint32
	best   []uint32
	x, y   []float64
	fx     float64
	// graph, spmv and chain hold the kernels' CPU times, in seconds.
	graph, spmv, chain samples
}

// gaugeSide is the side of the gauge's grid: 32^3 vertices, about
// 3.5 MB of arrays, more than a core's private cache, like the stages'
// inputs.
const gaugeSide = 32

// gaugeReference is about what speed() returns on the host the
// benchmark was tuned on, a 2-vCPU Intel Xeon (family 6, model 207),
// when other tenants leave it alone. It only sets the scale of the
// gated timings.
const gaugeReference = 2e-3

func newGauge() *gauge {
	n := gaugeSide
	g := &gauge{rowPtr: []int32{0}, fx: 1}
	id := func(i, j, k int) int32 { return int32((i*n+j)*n + k) }
	steps := [][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				g.col = append(g.col, id(i, j, k))
				g.val = append(g.val, 6)
				for _, d := range steps {
					a, b, c := i+d[0], j+d[1], k+d[2]
					if a >= 0 && a < n && b >= 0 && b < n && c >= 0 && c < n {
						g.col = append(g.col, id(a, b, c))
						g.val = append(g.val, -1)
					}
				}
				g.rowPtr = append(g.rowPtr, int32(len(g.col)))
			}
		}
	}
	nv := n * n * n
	g.prio, g.best = make([]uint32, nv), make([]uint32, nv)
	g.x, g.y = make([]float64, nv), make([]float64, nv)
	h := uint32(2166136261)
	for i := range g.prio {
		h = (h ^ uint32(i)) * 16777619
		g.prio[i] = h
		g.x[i] = 1 / float64(i+1)
	}
	return g
}

// sweep2 sets best[v] to the highest priority within distance 2 of v.
func (g *gauge) sweep2() {
	for v := range g.best {
		m := g.prio[v]
		for p := g.rowPtr[v]; p < g.rowPtr[v+1]; p++ {
			u := g.col[p]
			for q := g.rowPtr[u]; q < g.rowPtr[u+1]; q++ {
				m = max(m, g.prio[g.col[q]])
			}
		}
		g.best[v] = m
	}
}

// matvec sets y = A x, twice.
func (g *gauge) matvec() {
	for r := 0; r < 2; r++ {
		for i := range g.y {
			s := 0.0
			for p := g.rowPtr[i]; p < g.rowPtr[i+1]; p++ {
				s += g.val[p] * g.x[g.col[p]]
			}
			g.y[i] = s
		}
	}
}

func (g *gauge) fpChain() {
	for i := 0; i < 300_000; i++ {
		g.fx = g.fx*1.0000001 + 1e-9
	}
}

// sample times each kernel once; on a nil gauge it does nothing. A run
// samples the gauge before every round of its stages, every set-up and
// every pass of the closed loop, so the samples follow the host through
// the run.
func (g *gauge) sample() {
	if g == nil {
		return
	}
	g.graph.addDur(measure(g.sweep2).cpu, 1)
	g.spmv.addDur(measure(g.matvec).cpu, 1)
	g.chain.addDur(measure(g.fpChain).cpu, 1)
}

// speed returns the geometric mean of the kernels' median CPU times,
// in seconds.
func (g *gauge) speed() float64 {
	return geoMean(median(g.graph), median(g.spmv), median(g.chain))
}

func geoMean(xs ...float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// speedScale returns the scale of the run's gated timings,
// gaugeReference / speed().
func (g *gauge) speedScale() float64 { return gaugeReference / g.speed() }

// report reports the gauge as host.gauge_ms and returns speedScale.
func (g *gauge) report(rep *report) float64 {
	rep.set("host.gauge_ms", "ms", g.speed()*1e3, fmt.Sprintf(
		"geometric mean of median CPU times: distance-2 sweep %.3f ms, SpMV %.3f ms, FP chain %.3f ms (n=%d each); gated timings scaled by %.4f",
		median(g.graph)*1e3, median(g.spmv)*1e3, median(g.chain)*1e3, len(g.graph), g.speedScale()))
	return g.speedScale()
}
