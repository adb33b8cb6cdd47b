package main

import (
	"mis2go/internal/gen"
	"mis2go/internal/graph"
)

// family is a workload: one input family that every stage draws its
// inputs from. The families differ in the properties the algorithms
// depend on: degree (the MIS-2 unrolled high-degree path starts at
// average degree 16), regularity (the SELL format and aggregate shapes)
// and how much of the graph a vertex's distance-2 neighborhood covers.
type family struct {
	// graph builds the family's graph on an nx x ny x nz grid; seed
	// varies the graph only for families with random structure.
	graph      func(nx, ny, nz int, seed uint64) *graph.CSR
	full, tiny sizes
}

// sizes are grid sides per stage.
type sizes struct {
	// coarsen is the side of the MIS-2 / aggregation / cluster-GS graph.
	coarsen int
	// amg is the side of the AMG-solve system.
	amg int
	// serve is the side of the smallest served pattern; pattern k of
	// the service's pattern pool is serve x serve x (serve+k).
	serve int
}

// workloads are the families a run measures end to end, as
// BENCHMARK.json names them. Elasticity3D is a family but not a
// workload: on a shared two-CPU host its timings did not repeat from
// run to run within any allowed bound. Its MIS-2, the unrolled
// high-degree path, is still timed in every traced run (familyMIS2).
var workloads = []string{"laplace", "randomfem"}

var families = map[string]family{
	// Structured 7-point Laplace3D: degree 6, the paper's headline
	// graph. The sizes keep one call in the tens of milliseconds, so a
	// run collects enough samples on a shared host: 64k vertices to
	// coarsen, a 32k-row AMG system, served patterns of 1-2.5k rows.
	"laplace": {
		graph: func(nx, ny, nz int, _ uint64) *graph.CSR { return gen.Laplace3D(nx, ny, nz) },
		full:  sizes{coarsen: 40, amg: 32, serve: 10},
		tiny:  sizes{coarsen: 10, amg: 10, serve: 6},
	},
	// Elasticity3D: a 27-point grid with 3 coupled dofs per point,
	// degree ~73, which takes MIS-2's unrolled high-degree path and makes
	// SpGEMM-heavy AMG setup. At full size only its coarsen graph is
	// used (familyMIS2): 41k vertices, 1.5M edges, one MIS-2 call near
	// 20 ms.
	"elasticity": {
		graph: func(nx, ny, nz int, _ uint64) *graph.CSR { return gen.Elasticity3D(nx, ny, nz, 3) },
		full:  sizes{coarsen: 24},
		tiny:  sizes{coarsen: 4, amg: 6, serve: 3},
	},
	// Seeded RandomFEM: a 7-point grid plus random short-range edges to
	// average degree 12 — irregular rows (CSR, not SELL), irregular
	// aggregates, and a graph that changes with the seed.
	"randomfem": {
		graph: func(nx, ny, nz int, seed uint64) *graph.CSR { return gen.RandomFEM(nx, ny, nz, 12, seed) },
		full:  sizes{coarsen: 32, amg: 28, serve: 10},
		tiny:  sizes{coarsen: 10, amg: 10, serve: 6},
	},
}
