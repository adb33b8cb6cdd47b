// Symbolic/numeric setup split: cached SpGEMM plans.
//
// AMG setup solves long sequences of systems whose sparsity pattern is
// fixed while the values change (time stepping, Newton, parameter
// sweeps). The expensive part of Gustavson's SpGEMM — the mark/merge
// symbolic phase that discovers each output row's pattern — depends only
// on the operand patterns, so it can run once and be replayed. A *plan*
// captures that symbolic result: the output RowPtr/Col (sorted rows) plus
// a fingerprint of the operand patterns, and its Numeric method refills a
// result matrix's values with zero steady-state allocations (accumulator
// scratch comes from the worker arenas).
//
// Every replay is bitwise identical to the corresponding one-shot kernel
// (Multiply, Transpose, SmoothProlongator, RAP): every output entry sums
// its contributions in the same order, and the cached row-sorted pattern
// holds each entry where the one-shot kernel writes it after its row
// sort. Replays are deterministic for any worker count, and a plan built
// at one worker count replays identically at any other.
package sparse

import (
	"fmt"
	"math"

	"mis2go/internal/hash"
	"mis2go/internal/par"
)

// fingerprint returns the pattern fingerprint of a matrix.
func fingerprint(a *Matrix) uint64 {
	return hash.PatternFingerprint(a.Rows, a.Cols, a.RowPtr, a.Col)
}

// ProductPlan is the cached symbolic phase of Multiply: the pattern of
// C = A*B for fixed operand patterns. Create with PlanMultiply; replay
// values with Numeric. The plan's pattern slices are shared with
// matrices returned by NewMatrix and must not be mutated.
type ProductPlan struct {
	aRows, aCols, bCols int
	aFP, bFP            uint64
	ptr                 []int
	col                 []int32
	// The scatter schedule: the f-th multiply-add of Gustavson's fused
	// traversal (rows of A in order, each A entry expanded over its B
	// row) lands in output entry dst[f]; row i's multiply-adds are
	// [flopPtr[i], flopPtr[i+1]). Replaying that stream visits every
	// output entry's contributions in exactly the order the fused kernel
	// accumulates them, so it is bitwise identical to Multiply with no
	// mark checks and no accumulator scratch. flopPtr is nil (falling
	// back to the mark/acc replay) when an entry index would overflow
	// int32 or the flop count exceeds the memory bound.
	flopPtr []int
	dst     []int32
}

// maxScheduleFlopsFactor bounds the scatter schedule's memory: the
// schedule stores 4 bytes per multiply-add, so a product whose flop
// count exceeds this multiple of the combined operand/result sizes
// (dense-ish rows, far outside the mesh/Galerkin regime the schedule
// targets) would let the plan dwarf the matrices it serves. Such plans
// fall back to the mark/acc replay, which is bitwise identical.
const maxScheduleFlopsFactor = 8

// PlanMultiply computes the pattern of C = A*B (Gustavson's mark phase:
// count, scan, then collect-and-sort each output row) and, in the same
// per-row fill pass, the scatter schedule. Only the operand patterns are
// read, never the values. Rows own contiguous pattern and schedule
// ranges, so the plan is the same for any worker count.
func PlanMultiply(rt *par.Runtime, a, b *Matrix) (*ProductPlan, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("sparse: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	pl := &ProductPlan{
		aRows: a.Rows, aCols: a.Cols, bCols: b.Cols,
		aFP: fingerprint(a), bFP: fingerprint(b),
	}
	pl.ptr = make([]int, a.Rows+1)
	car := par.AcquireArena()
	counts := par.Get[int](car, a.Rows)
	countProductRows(rt, a, b, counts)
	nnz := par.ScanExclusive(rt, counts, pl.ptr)
	// Multiply-adds per row: the lengths of the B rows its A entries
	// select (O(nnz(A)), no B traversal).
	rt.For(a.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f := 0
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				f += b.RowPtr[a.Col[p]+1] - b.RowPtr[a.Col[p]]
			}
			counts[i] = f
		}
	})
	flopPtr := make([]int, a.Rows+1)
	flops := par.ScanExclusive(rt, counts, flopPtr)
	par.Put(car, counts)
	par.ReleaseArena(car)
	if nnz <= math.MaxInt32 && flops <= maxScheduleFlopsFactor*(len(a.Col)+len(b.Col)+nnz) {
		pl.flopPtr = flopPtr
		pl.dst = make([]int32, flops)
	}
	pl.col = make([]int32, nnz)

	// Fill pass: collect each output row's pattern and sort it, so every
	// replay writes entries in sorted order without sorting. With a
	// schedule, one row-local re-walk then records each multiply-add's
	// entry index: mark[j] temporarily holds ^k for column j's entry k.
	// Complemented indices are negative, so they never match a later
	// row's stamp and need no clearing.
	par.ForWith(rt, a.Rows,
		func(ar *par.Arena) []int32 {
			mark := par.Get[int32](ar, b.Cols)
			for i := range mark {
				mark[i] = -1
			}
			return mark
		},
		func(lo, hi int, mark []int32) {
			for i := lo; i < hi; i++ {
				base := pl.ptr[i]
				k := base
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					row := a.Col[p]
					for q := b.RowPtr[row]; q < b.RowPtr[row+1]; q++ {
						j := b.Col[q]
						if mark[j] != int32(i) {
							mark[j] = int32(i)
							pl.col[k] = j
							k++
						}
					}
				}
				sortRow(pl.col[base:k])
				if pl.flopPtr == nil {
					continue
				}
				for e := base; e < k; e++ {
					mark[pl.col[e]] = ^int32(e)
				}
				f := pl.flopPtr[i]
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					row := a.Col[p]
					for q := b.RowPtr[row]; q < b.RowPtr[row+1]; q++ {
						pl.dst[f] = ^mark[b.Col[q]]
						f++
					}
				}
			}
		},
		func(ar *par.Arena, mark []int32) { par.Put(ar, mark) })
	return pl, nil
}

// NNZ returns the number of stored entries of the planned product.
func (pl *ProductPlan) NNZ() int { return len(pl.col) }

// NewMatrix returns a result matrix with the plan's pattern and zeroed
// values, ready for Numeric. The RowPtr/Col slices are shared with the
// plan (both treat the pattern as immutable).
func (pl *ProductPlan) NewMatrix() *Matrix {
	return &Matrix{Rows: pl.aRows, Cols: pl.bCols, RowPtr: pl.ptr, Col: pl.col, Val: make([]float64, len(pl.col))}
}

// Numeric replays the plan for new operand values: c.Val is overwritten
// with the values of A*B. A and B must have the planned patterns
// (verified via fingerprint), and c must carry the plan's pattern —
// normally a matrix from NewMatrix. Zero steady-state allocations;
// bitwise identical to Multiply on the same operands.
func (pl *ProductPlan) Numeric(rt *par.Runtime, a, b, c *Matrix) error {
	if err := pl.checkShapes(a, b, c); err != nil {
		return err
	}
	if fingerprint(a) != pl.aFP {
		return fmt.Errorf("sparse: plan replay: pattern of A changed since PlanMultiply")
	}
	if fingerprint(b) != pl.bFP {
		return fmt.Errorf("sparse: plan replay: pattern of B changed since PlanMultiply")
	}
	pl.numeric(rt, a, b, c)
	return nil
}

// Replay is Numeric without the O(nnz) fingerprint verification, for
// callers that already guarantee the operand patterns match the plan —
// e.g. an AMG hierarchy that fingerprint-checks its fine matrix once per
// refresh and owns every other operand. Shapes and pattern sizes are
// still checked.
//
//amg:hotpath
func (pl *ProductPlan) Replay(rt *par.Runtime, a, b, c *Matrix) error {
	if err := pl.checkShapes(a, b, c); err != nil {
		return err
	}
	pl.numeric(rt, a, b, c)
	return nil
}

// checkShapes verifies the O(1) replay preconditions: operand and result
// dimensions and stored-entry counts.
func (pl *ProductPlan) checkShapes(a, b, c *Matrix) error {
	if a.Rows != pl.aRows || a.Cols != pl.aCols || b.Rows != pl.aCols || b.Cols != pl.bCols {
		return fmt.Errorf("sparse: plan replay dimension mismatch %dx%d * %dx%d (planned %dx%d * %dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, pl.aRows, pl.aCols, pl.aCols, pl.bCols)
	}
	if c.Rows != pl.aRows || c.Cols != pl.bCols || len(c.Col) != len(pl.col) || len(c.Val) != len(pl.col) {
		return fmt.Errorf("sparse: plan replay: result matrix does not carry the plan pattern (use NewMatrix)")
	}
	return nil
}

// numeric is the unchecked replay, used internally where the operands
// are plan-owned and the checks would be redundant per-call cost. With a
// scatter schedule the replay is a branch-free multiply-add stream into
// the cached entry indices; otherwise it falls back to the mark/acc
// accumulation. Both paths are bitwise identical to Multiply.
//
//amg:hotpath
func (pl *ProductPlan) numeric(rt *par.Runtime, a, b, c *Matrix) {
	if pl.flopPtr != nil {
		if rt.Serial(pl.aRows) {
			pl.scheduleRange(a, b, c, 0, pl.aRows)
			return
		}
		rt.For(pl.aRows, func(lo, hi int) {
			pl.scheduleRange(a, b, c, lo, hi)
		})
		return
	}
	if rt.Serial(pl.aRows) {
		ar := par.AcquireArena()
		mark := par.Get[int32](ar, pl.bCols)
		acc := par.Get[float64](ar, pl.bCols)
		for i := range mark {
			mark[i] = -1
		}
		productNumericRange(a, b, c, mark, acc, 0, pl.aRows)
		par.Put(ar, mark)
		par.Put(ar, acc)
		par.ReleaseArena(ar)
		return
	}
	par.ForWith(rt, pl.aRows,
		func(ar *par.Arena) spgemmScratch {
			s := spgemmScratch{
				mark: par.Get[int32](ar, pl.bCols),
				acc:  par.Get[float64](ar, pl.bCols),
			}
			for i := range s.mark {
				s.mark[i] = -1
			}
			return s
		},
		func(lo, hi int, s spgemmScratch) {
			productNumericRange(a, b, c, s.mark, s.acc, lo, hi)
		},
		func(ar *par.Arena, s spgemmScratch) {
			par.Put(ar, s.mark)
			par.Put(ar, s.acc)
		})
}

// scheduleRange replays rows [lo, hi) through the scatter schedule. The
// rows' entries start at -0, the IEEE additive identity (-0 + x == x bit
// for bit, signed zeros included), so adding each multiply-add into
// c.Val[dst[f]] in traversal order reproduces the fused kernel's
// first-touch accumulation exactly; every entry has at least one
// multiply-add by construction.
//
//amg:hotpath
func (pl *ProductPlan) scheduleRange(a, b, c *Matrix, lo, hi int) {
	val := c.Val[pl.ptr[lo]:pl.ptr[hi]]
	negZero := math.Copysign(0, -1)
	for k := range val {
		val[k] = negZero
	}
	dst := pl.dst[pl.flopPtr[lo]:pl.flopPtr[hi]]
	f := 0
	for p := a.RowPtr[lo]; p < a.RowPtr[hi]; p++ {
		ak := a.Val[p]
		row := a.Col[p]
		bv := b.Val[b.RowPtr[row]:b.RowPtr[row+1]]
		d := dst[f : f+len(bv)]
		for t, x := range bv {
			c.Val[d[t]] += ak * x
		}
		f += len(bv)
	}
}

// productNumericRange replays rows [lo, hi): the same first-touch
// accumulation as Multiply's numeric pass, then a gather through the
// pre-sorted cached pattern (which visits entries in exactly the order
// Multiply writes them after sortRow — hence bitwise-identical values).
//
//amg:hotpath
func productNumericRange(a, b, c *Matrix, mark []int32, acc []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			ak := a.Val[p]
			row := a.Col[p]
			for q := b.RowPtr[row]; q < b.RowPtr[row+1]; q++ {
				j := b.Col[q]
				if mark[j] != int32(i) {
					mark[j] = int32(i)
					acc[j] = ak * b.Val[q]
				} else {
					acc[j] += ak * b.Val[q]
				}
			}
		}
		for idx := c.RowPtr[i]; idx < c.RowPtr[i+1]; idx++ {
			c.Val[idx] = acc[c.Col[idx]]
		}
	}
}

// TransposePlan is the cached symbolic phase of Transpose: the transposed
// pattern plus the entry permutation, so a replay is a values-only
// permuted copy.
type TransposePlan struct {
	rows, cols int
	fp         uint64
	ptr        []int
	col        []int32
	// perm[p] is the output position of input entry p.
	perm []int
}

// PlanTranspose computes the pattern of A^T and the entry permutation.
func PlanTranspose(rt *par.Runtime, a *Matrix) *TransposePlan {
	pl := &TransposePlan{rows: a.Rows, cols: a.Cols, fp: fingerprint(a)}
	pl.perm = make([]int, len(a.Col))
	ptr, col, _ := a.transposeBlocked(rt, a.Cols, false, pl.perm)
	pl.ptr = make([]int, a.Cols+1)
	copy(pl.ptr, ptr)
	pl.col = make([]int32, len(a.Col))
	copy(pl.col, col)
	arenaRelease(ptr, col, nil)
	return pl
}

// NewMatrix returns a transpose-shaped matrix with the plan's pattern and
// zeroed values, ready for Numeric. RowPtr/Col are shared with the plan.
func (pl *TransposePlan) NewMatrix() *Matrix {
	return &Matrix{Rows: pl.cols, Cols: pl.rows, RowPtr: pl.ptr, Col: pl.col, Val: make([]float64, len(pl.col))}
}

// Numeric replays the transpose for new values: t.Val[perm[p]] = a.Val[p].
// Bitwise identical to Transpose (an exact value copy) and allocation-free.
func (pl *TransposePlan) Numeric(rt *par.Runtime, a, t *Matrix) error {
	if err := pl.checkShapes(a, t); err != nil {
		return err
	}
	if fingerprint(a) != pl.fp {
		return fmt.Errorf("sparse: transpose replay: pattern of A changed since PlanTranspose")
	}
	pl.replay(rt, a, t)
	return nil
}

// Replay is Numeric without the fingerprint verification (see
// ProductPlan.Replay for the contract).
//
//amg:hotpath
func (pl *TransposePlan) Replay(rt *par.Runtime, a, t *Matrix) error {
	if err := pl.checkShapes(a, t); err != nil {
		return err
	}
	pl.replay(rt, a, t)
	return nil
}

func (pl *TransposePlan) checkShapes(a, t *Matrix) error {
	if a.Rows != pl.rows || a.Cols != pl.cols || len(a.Val) != len(pl.perm) {
		return fmt.Errorf("sparse: transpose replay dimension mismatch %dx%d (planned %dx%d)", a.Rows, a.Cols, pl.rows, pl.cols)
	}
	if t.Rows != pl.cols || t.Cols != pl.rows || len(t.Val) != len(pl.perm) {
		return fmt.Errorf("sparse: transpose replay: result matrix does not carry the plan pattern (use NewMatrix)")
	}
	return nil
}

//amg:hotpath
func (pl *TransposePlan) replay(rt *par.Runtime, a, t *Matrix) {
	nnz := len(pl.perm)
	if rt.Serial(nnz) {
		pl.scatterRange(a, t, 0, nnz)
		return
	}
	rt.For(nnz, func(lo, hi int) {
		pl.scatterRange(a, t, lo, hi)
	})
}

//amg:hotpath
func (pl *TransposePlan) scatterRange(a, t *Matrix, lo, hi int) {
	for p := lo; p < hi; p++ {
		t.Val[pl.perm[p]] = a.Val[p]
	}
}

// SmoothPlan is the cached symbolic phase of SmoothProlongator: the union
// pattern of the product D^{-1}A*P0 and P0 itself, row-sorted.
type SmoothPlan struct {
	aRows, aCols, p0Cols int
	aFP, p0FP            uint64
	ptr                  []int
	col                  []int32
}

// PlanSmoothProlongator computes the pattern of (I - omega*D^{-1}*A)*P0,
// which depends only on the patterns of A and P0 (dinv and omega scale
// values, never the pattern).
func PlanSmoothProlongator(rt *par.Runtime, a, p0 *Matrix) (*SmoothPlan, error) {
	if a.Cols != p0.Rows {
		return nil, fmt.Errorf("sparse: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, p0.Rows, p0.Cols)
	}
	pl := &SmoothPlan{
		aRows: a.Rows, aCols: a.Cols, p0Cols: p0.Cols,
		aFP: fingerprint(a), p0FP: fingerprint(p0),
	}
	pl.ptr = make([]int, a.Rows+1)
	car := par.AcquireArena()
	counts := par.Get[int](car, a.Rows)
	countSmoothedRows(rt, a, p0, counts)
	nnz := par.ScanExclusive(rt, counts, pl.ptr)
	par.Put(car, counts)
	par.ReleaseArena(car)
	pl.col = make([]int32, nnz)

	// Fill pass: per row, collect and sort the product pattern, then
	// merge it with the (sorted) P0 row — the same merge order as the
	// one-shot kernel, writing columns only.
	par.ForWith(rt, a.Rows,
		func(ar *par.Arena) smoothScratch {
			s := smoothScratch{
				mark: par.Get[int32](ar, p0.Cols),
				cols: par.Get[int32](ar, p0.Cols),
			}
			for i := range s.mark {
				s.mark[i] = -1
			}
			return s
		},
		func(lo, hi int, s smoothScratch) {
			mark := s.mark
			for i := lo; i < hi; i++ {
				nc := 0
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					row := a.Col[p]
					for q := p0.RowPtr[row]; q < p0.RowPtr[row+1]; q++ {
						j := p0.Col[q]
						if mark[j] != int32(i) {
							mark[j] = int32(i)
							s.cols[nc] = j
							nc++
						}
					}
				}
				prod := s.cols[:nc]
				sortRow(prod)
				k := pl.ptr[i]
				pp, pq := 0, p0.RowPtr[i]
				eq := p0.RowPtr[i+1]
				for pp < nc || pq < eq {
					switch {
					case pq >= eq || (pp < nc && prod[pp] < p0.Col[pq]):
						pl.col[k] = prod[pp]
						pp++
					case pp >= nc || p0.Col[pq] < prod[pp]:
						pl.col[k] = p0.Col[pq]
						pq++
					default:
						pl.col[k] = prod[pp]
						pp++
						pq++
					}
					k++
				}
			}
		},
		func(ar *par.Arena, s smoothScratch) {
			par.Put(ar, s.mark)
			par.Put(ar, s.cols)
		})
	return pl, nil
}

// NewMatrix returns a smoothed-prolongator-shaped matrix with the plan's
// pattern and zeroed values. RowPtr/Col are shared with the plan.
func (pl *SmoothPlan) NewMatrix() *Matrix {
	return &Matrix{Rows: pl.aRows, Cols: pl.p0Cols, RowPtr: pl.ptr, Col: pl.col, Val: make([]float64, len(pl.col))}
}

// Numeric replays the plan for new values of A (and a new dinv/omega):
// out.Val is overwritten with (I - omega*D^{-1}*A)*P0. Bitwise identical
// to SmoothProlongator and allocation-free in steady state.
func (pl *SmoothPlan) Numeric(rt *par.Runtime, a, p0 *Matrix, dinv []float64, omega float64, out *Matrix) error {
	if err := pl.checkShapes(a, p0, dinv, out); err != nil {
		return err
	}
	if fingerprint(a) != pl.aFP {
		return fmt.Errorf("sparse: smooth replay: pattern of A changed since PlanSmoothProlongator")
	}
	if fingerprint(p0) != pl.p0FP {
		return fmt.Errorf("sparse: smooth replay: pattern of P0 changed since PlanSmoothProlongator")
	}
	pl.replay(rt, a, p0, dinv, omega, out)
	return nil
}

// Replay is Numeric without the fingerprint verification (see
// ProductPlan.Replay for the contract).
//
//amg:hotpath
func (pl *SmoothPlan) Replay(rt *par.Runtime, a, p0 *Matrix, dinv []float64, omega float64, out *Matrix) error {
	if err := pl.checkShapes(a, p0, dinv, out); err != nil {
		return err
	}
	pl.replay(rt, a, p0, dinv, omega, out)
	return nil
}

func (pl *SmoothPlan) checkShapes(a, p0 *Matrix, dinv []float64, out *Matrix) error {
	if a.Rows != pl.aRows || a.Cols != pl.aCols || p0.Rows != pl.aCols || p0.Cols != pl.p0Cols {
		return fmt.Errorf("sparse: smooth replay dimension mismatch %dx%d * %dx%d (planned %dx%d * %dx%d)",
			a.Rows, a.Cols, p0.Rows, p0.Cols, pl.aRows, pl.aCols, pl.aCols, pl.p0Cols)
	}
	if len(dinv) != a.Rows {
		return fmt.Errorf("sparse: dinv length %d, want %d", len(dinv), a.Rows)
	}
	if out.Rows != pl.aRows || out.Cols != pl.p0Cols || len(out.Col) != len(pl.col) || len(out.Val) != len(pl.col) {
		return fmt.Errorf("sparse: smooth replay: result matrix does not carry the plan pattern (use NewMatrix)")
	}
	return nil
}

//amg:hotpath
func (pl *SmoothPlan) replay(rt *par.Runtime, a, p0 *Matrix, dinv []float64, omega float64, out *Matrix) {
	if rt.Serial(pl.aRows) {
		ar := par.AcquireArena()
		mark := par.Get[int32](ar, pl.p0Cols)
		acc := par.Get[float64](ar, pl.p0Cols)
		for i := range mark {
			mark[i] = -1
		}
		smoothNumericRange(a, p0, dinv, omega, out, mark, acc, 0, pl.aRows)
		par.Put(ar, mark)
		par.Put(ar, acc)
		par.ReleaseArena(ar)
		return
	}
	par.ForWith(rt, pl.aRows,
		func(ar *par.Arena) spgemmScratch {
			s := spgemmScratch{
				mark: par.Get[int32](ar, pl.p0Cols),
				acc:  par.Get[float64](ar, pl.p0Cols),
			}
			for i := range s.mark {
				s.mark[i] = -1
			}
			return s
		},
		func(lo, hi int, s spgemmScratch) {
			smoothNumericRange(a, p0, dinv, omega, out, s.mark, s.acc, lo, hi)
		},
		func(ar *par.Arena, s spgemmScratch) {
			par.Put(ar, s.mark)
			par.Put(ar, s.acc)
		})
}

// smoothNumericRange replays rows [lo, hi): the product row of D^{-1}A*P0
// accumulates exactly as in the one-shot kernel, then the cached union
// pattern is walked against the P0 row — marked entries came from the
// product, matching P0 columns contribute the identity term — writing
// the same expressions in the same order as the one-shot merge.
//
//amg:hotpath
func smoothNumericRange(a, p0 *Matrix, dinv []float64, omega float64, out *Matrix, mark []int32, acc []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		di := dinv[i]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			ak := di * a.Val[p]
			row := a.Col[p]
			for q := p0.RowPtr[row]; q < p0.RowPtr[row+1]; q++ {
				j := p0.Col[q]
				if mark[j] != int32(i) {
					mark[j] = int32(i)
					acc[j] = ak * p0.Val[q]
				} else {
					acc[j] += ak * p0.Val[q]
				}
			}
		}
		pq := p0.RowPtr[i]
		eq := p0.RowPtr[i+1]
		for idx := out.RowPtr[i]; idx < out.RowPtr[i+1]; idx++ {
			j := out.Col[idx]
			inP0 := pq < eq && p0.Col[pq] == j
			switch {
			case inP0 && mark[j] == int32(i):
				out.Val[idx] = p0.Val[pq] + -omega*acc[j]
				pq++
			case mark[j] == int32(i):
				out.Val[idx] = -omega * acc[j]
			default: // P0-only entry
				out.Val[idx] = p0.Val[pq]
				pq++
			}
		}
	}
}

// RAPPlan is the cached symbolic phase of the Galerkin triple product
// R*A*P: two chained product plans plus the plan-owned intermediate A*P,
// whose value buffer is refilled in place on every replay.
type RAPPlan struct {
	ap      *Matrix
	apPlan  *ProductPlan
	rapPlan *ProductPlan
}

// PlanRAP computes the patterns of AP = A*P and R*AP. Only operand
// patterns are read.
func PlanRAP(rt *par.Runtime, r, a, p *Matrix) (*RAPPlan, error) {
	apPlan, err := PlanMultiply(rt, a, p)
	if err != nil {
		return nil, err
	}
	ap := apPlan.NewMatrix()
	rapPlan, err := PlanMultiply(rt, r, ap)
	if err != nil {
		return nil, err
	}
	return &RAPPlan{ap: ap, apPlan: apPlan, rapPlan: rapPlan}, nil
}

// NNZ returns the number of stored entries of the planned coarse operator.
func (pl *RAPPlan) NNZ() int { return pl.rapPlan.NNZ() }

// NewMatrix returns a coarse-operator matrix with the plan's pattern and
// zeroed values, ready for Numeric.
func (pl *RAPPlan) NewMatrix() *Matrix { return pl.rapPlan.NewMatrix() }

// Numeric replays the triple product for new values: out.Val is
// overwritten with R*A*P, staging A*P in the plan-owned intermediate.
// Bitwise identical to RAP and allocation-free in steady state.
func (pl *RAPPlan) Numeric(rt *par.Runtime, r, a, p, out *Matrix) error {
	if err := pl.apPlan.Numeric(rt, a, p, pl.ap); err != nil {
		return err
	}
	return pl.rapPlan.Numeric(rt, r, pl.ap, out)
}

// Replay is Numeric without the fingerprint verification (see
// ProductPlan.Replay for the contract). The intermediate A*P is
// plan-owned, so only the caller-supplied operands' shapes are checked.
//
//amg:hotpath
func (pl *RAPPlan) Replay(rt *par.Runtime, r, a, p, out *Matrix) error {
	if err := pl.apPlan.Replay(rt, a, p, pl.ap); err != nil {
		return err
	}
	return pl.rapPlan.Replay(rt, r, pl.ap, out)
}
