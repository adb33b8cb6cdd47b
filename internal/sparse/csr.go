package sparse

import (
	"fmt"

	"mis2go/internal/par"
)

// value is the stored-value type of an operator. Whatever V is, kernels
// take float64 vectors and accumulate in float64: each stored value is
// widened (float64(v), the identity for float64) immediately before its
// multiply, so the value type changes only the bytes streamed per entry
// and, for float32, one rounding of each value at store time.
type value interface{ float32 | float64 }

// precisionOf reports the Precision of value storage V.
func precisionOf[V value]() Precision {
	var v V
	if _, ok := any(v).(float32); ok {
		return PrecisionF32
	}
	return PrecisionF64
}

// checkStore reports whether vals can be stored as V. float32 storage
// runs CheckF32Range; float64 stores anything. Constructors and
// FillValues call it before any store, so a rejected refresh leaves the
// previous values serving.
func checkStore[V value](vals []float64) error {
	if precisionOf[V]() == PrecisionF32 {
		return CheckF32Range(vals)
	}
	return nil
}

// csrOp is the CSR kernel set, written once over the value storage V.
// Every kernel accumulates each row strictly left to right over the
// row's stored entries with a single float64 accumulator — the
// canonical per-row order every operator format reproduces exactly
// (SELL-C-sigma in sell.go), so switching formats never changes a bit
// of any result. The order is a function of the row alone, keeping
// results identical for every worker count; independent rows still give
// the out-of-order core plenty of ILP. Per-row subslices let the
// compiler eliminate the inner-loop bounds checks.
//
// csrOp[float64] has the memory layout of Matrix, field for field, so
// *Matrix runs these kernels over its own exported arrays through a
// pointer view (Matrix.kernels) instead of a per-call copy; a copy
// captured by the par participant closures would move to the heap on
// every call, the serial path included.
//
// Concurrency: all kernels only read the operator and write
// caller-provided outputs, so they are safe for concurrent use;
// FillValues mutates the stored values and must be serialized against
// every reader.
type csrOp[V value] struct {
	rows, cols int
	rowPtr     []int   // shared with the source matrix
	col        []int32 // shared with the source matrix
	val        []V
}

// CSR32 is the float32-valued CSR operator: the row pointers and column
// indices are shared with the source *Matrix (the pattern is identical
// by construction and never mutated here), only the values are stored
// down-converted. It runs the same kernels as *Matrix.
type CSR32 = csrOp[float32]

// NewCSR32 builds the f32-valued view of a, rejecting values outside
// the float32 range (CheckF32Range) before allocating. The pattern
// slices are shared with a, not copied: the AMG hierarchy owns both and
// replays values only.
func NewCSR32(a *Matrix) (*CSR32, error) {
	if err := CheckF32Range(a.Val); err != nil {
		return nil, err
	}
	c := &CSR32{rows: a.Rows, cols: a.Cols, rowPtr: a.RowPtr, col: a.Col}
	c.val = make([]float32, len(a.Val))
	c.store(a.Val)
	return c, nil
}

// FillValues refreshes the stored values from a same-pattern CSR matrix.
// The range check runs before any store, so a rejected refresh leaves
// the previous values serving bitwise unchanged; the conversion loop
// itself is branch-free (position p converts entry p — the CSR entry
// schedule is the identity) and allocates nothing. Only the shape and
// entry count are checked here; pattern identity is the caller's
// contract.
func (c *csrOp[V]) FillValues(a *Matrix) error {
	if a.Rows != c.rows || a.Cols != c.cols || len(a.Val) != len(c.val) {
		return fmt.Errorf("sparse: %v CSR refresh from %dx%d/%d entries, converted from %dx%d/%d",
			precisionOf[V](), a.Rows, a.Cols, len(a.Val), c.rows, c.cols, len(c.val))
	}
	if err := checkStore[V](a.Val); err != nil {
		return err
	}
	c.store(a.Val)
	return nil
}

// store converts vals into the value array (same length, range-checked).
func (c *csrOp[V]) store(vals []float64) {
	for p, v := range vals {
		c.val[p] = V(v)
	}
}

// Dims returns the operator shape, implementing Operator.
func (c *csrOp[V]) Dims() (rows, cols int) { return c.rows, c.cols }

// NNZ returns the number of stored entries.
func (c *csrOp[V]) NNZ() int { return len(c.col) }

// SpMV computes y = A*x in parallel over rows.
//
//amg:hotpath
func (c *csrOp[V]) SpMV(rt *par.Runtime, x, y []float64) {
	if rt.Serial(c.rows) {
		c.spmvRange(x, y, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.spmvRange(x, y, lo, hi)
	})
}

//amg:hotpath
func (c *csrOp[V]) spmvRange(x, y []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		start, end := rp[i], rp[i+1]
		cols := c.col[start:end]
		vals := c.val[start:end]
		var s float64
		for k, j := range cols {
			s += float64(vals[k]) * x[j]
		}
		y[i] = s
	}
}

// SpMVResidual computes r = b - A*x in one traversal, fusing the
// elementwise subtraction into the product pass (the V-cycle's residual
// step without a second full-vector sweep). r must not alias x.
//
//amg:hotpath
func (c *csrOp[V]) SpMVResidual(rt *par.Runtime, b, x, r []float64) {
	if rt.Serial(c.rows) {
		c.spmvResidualRange(b, x, r, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.spmvResidualRange(b, x, r, lo, hi)
	})
}

//amg:hotpath
func (c *csrOp[V]) spmvResidualRange(b, x, r []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		start, end := rp[i], rp[i+1]
		cols := c.col[start:end]
		vals := c.val[start:end]
		var s float64
		for k, j := range cols {
			s += float64(vals[k]) * x[j]
		}
		r[i] = b[i] - s
	}
}

// SpMVAdd computes y += A*x in one traversal, fusing the correction add
// into the product pass (the V-cycle's prolongate-and-correct step
// without a scratch vector). y must not alias x.
//
//amg:hotpath
func (c *csrOp[V]) SpMVAdd(rt *par.Runtime, x, y []float64) {
	if rt.Serial(c.rows) {
		c.spmvAddRange(x, y, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.spmvAddRange(x, y, lo, hi)
	})
}

//amg:hotpath
func (c *csrOp[V]) spmvAddRange(x, y []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		start, end := rp[i], rp[i+1]
		cols := c.col[start:end]
		vals := c.val[start:end]
		var s float64
		for k, j := range cols {
			s += float64(vals[k]) * x[j]
		}
		y[i] += s
	}
}

// JacobiSweep computes dst[i] = src[i] + omega*dinv[i]*(b[i] - (A src)[i])
// in one traversal — the fused damped-Jacobi sweep of the AMG V-cycle.
// The diagonal inverse stays float64 (it is smoother state, not
// operator storage). src and dst must not alias (the sweep needs the
// full old iterate; the V-cycle ping-pongs two buffers).
//
//amg:hotpath
func (c *csrOp[V]) JacobiSweep(rt *par.Runtime, b, dinv []float64, omega float64, src, dst []float64) {
	if rt.Serial(c.rows) {
		c.jacobiSweepRange(b, dinv, omega, src, dst, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.jacobiSweepRange(b, dinv, omega, src, dst, lo, hi)
	})
}

//amg:hotpath
func (c *csrOp[V]) jacobiSweepRange(b, dinv []float64, omega float64, src, dst []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		start, end := rp[i], rp[i+1]
		cols := c.col[start:end]
		vals := c.val[start:end]
		var s float64
		for k, j := range cols {
			s += float64(vals[k]) * src[j]
		}
		dst[i] = src[i] + omega*dinv[i]*(b[i]-s)
	}
}

// SpMM computes the multi-RHS product Y = A*X for k right-hand sides.
// X and Y use the interleaved (column-blocked) layout: the k values of
// row i are contiguous at [i*k : (i+1)*k], so one traversal of A serves
// all k right-hand sides and every gather from X touches one contiguous
// block. len(x) must be cols*k and len(y) rows*k. Deterministic: each
// output column of a row accumulates in stored-entry order.
//
//amg:hotpath
func (c *csrOp[V]) SpMM(rt *par.Runtime, k int, x, y []float64) {
	if k == 1 {
		c.SpMV(rt, x, y)
		return
	}
	if rt.Serial(c.rows) {
		c.spmmRange(k, x, y, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.spmmRange(k, x, y, lo, hi)
	})
}

// spmmRange is the SpMM kernel for rows [lo, hi). The 4- and 8-wide
// blocks the batched solvers use go to register-accumulator kernels;
// other widths accumulate directly into Y's row block (owned by this
// row), so no scratch is needed.
//
//amg:hotpath
func (c *csrOp[V]) spmmRange(k int, x, y []float64, lo, hi int) {
	switch k {
	case 4:
		c.spmm4Range(x, y, lo, hi)
		return
	case 8:
		c.spmm8Range(x, y, lo, hi)
		return
	}
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		yb := y[i*k : i*k+k]
		for j := range yb {
			yb[j] = 0
		}
		for p := rp[i]; p < rp[i+1]; p++ {
			v := float64(c.val[p])
			xb := x[int(c.col[p])*k : int(c.col[p])*k+k]
			for j, xv := range xb {
				yb[j] += v * xv
			}
		}
	}
}

// spmm4Range is the 4-wide SpMM kernel: four independent accumulators
// per row, one contiguous 4-block gather from X per stored entry.
//
//amg:hotpath
func (c *csrOp[V]) spmm4Range(x, y []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3 float64
		for p := rp[i]; p < rp[i+1]; p++ {
			v := float64(c.val[p])
			xb := x[int(c.col[p])*4:]
			xb = xb[:4]
			s0 += v * xb[0]
			s1 += v * xb[1]
			s2 += v * xb[2]
			s3 += v * xb[3]
		}
		yb := y[i*4:]
		yb = yb[:4]
		yb[0], yb[1], yb[2], yb[3] = s0, s1, s2, s3
	}
}

// spmm8Range is the 8-wide SpMM kernel.
//
//amg:hotpath
func (c *csrOp[V]) spmm8Range(x, y []float64, lo, hi int) {
	rp := c.rowPtr
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for p := rp[i]; p < rp[i+1]; p++ {
			v := float64(c.val[p])
			xb := x[int(c.col[p])*8:]
			xb = xb[:8]
			s0 += v * xb[0]
			s1 += v * xb[1]
			s2 += v * xb[2]
			s3 += v * xb[3]
			s4 += v * xb[4]
			s5 += v * xb[5]
			s6 += v * xb[6]
			s7 += v * xb[7]
		}
		yb := y[i*8:]
		yb = yb[:8]
		yb[0], yb[1], yb[2], yb[3] = s0, s1, s2, s3
		yb[4], yb[5], yb[6], yb[7] = s4, s5, s6, s7
	}
}

// DiagonalInto fills d with the diagonal entries (zero where absent),
// widened to float64, in parallel over rows.
//
//amg:hotpath
func (c *csrOp[V]) DiagonalInto(rt *par.Runtime, d []float64) {
	if rt.Serial(c.rows) {
		c.diagonalRange(d, 0, c.rows)
		return
	}
	rt.For(c.rows, func(lo, hi int) {
		c.diagonalRange(d, lo, hi)
	})
}

//amg:hotpath
func (c *csrOp[V]) diagonalRange(d []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		d[i] = 0
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			if int(c.col[p]) == i {
				d[i] = float64(c.val[p])
				break
			}
		}
	}
}
