package sparse

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mis2go/internal/par"
)

// The differential suite checks every operator format and precision
// against a naive row loop written here, independent of any kernel in
// the package: row i's product is one float64 accumulator starting at
// zero, adding stored(v)*x[col] for the row's entries in stored order.
// stored is the identity for float64 storage and the float32 rounding
// for float32 storage, so both precisions must match the reference
// bitwise — the accumulation order is canonical.

// refCSR evaluates a CSR matrix by the naive row loop.
type refCSR struct {
	a   *Matrix
	f32 bool // values are rounded to float32 at store time
}

func (r refCSR) stored(v float64) float64 {
	if r.f32 {
		return float64(float32(v))
	}
	return v
}

// dot returns row i's product with column j of the k-interleaved x.
func (r refCSR) dot(i int, x []float64, k, j int) float64 {
	var s float64
	for p := r.a.RowPtr[i]; p < r.a.RowPtr[i+1]; p++ {
		s += r.stored(r.a.Val[p]) * x[int(r.a.Col[p])*k+j]
	}
	return s
}

func (r refCSR) diag(i int) float64 {
	for p := r.a.RowPtr[i]; p < r.a.RowPtr[i+1]; p++ {
		if int(r.a.Col[p]) == i {
			return r.stored(r.a.Val[p])
		}
	}
	return 0
}

// refMatrices are the differential inputs: mixed row lengths with empty
// rows, a matrix large and regular enough that FormatAuto picks SELL,
// fewer rows than one SELL chunk, single-entry rows, values at the edges
// of the float32 range, and degenerate shapes.
func refMatrices() map[string]*Matrix {
	mats := map[string]*Matrix{
		"irregular":   sellTestMatrix(1003, 800),
		"wide":        sellTestMatrix(64, 300),
		"tiny":        sellTestMatrix(5, 7),
		"empty":       {Rows: 0, Cols: 0, RowPtr: []int{0}},
		"emptyrows":   {Rows: 6, Cols: 4, RowPtr: make([]int, 7)},
		"singleentry": {Rows: 11, Cols: 11, RowPtr: make([]int, 12)},
	}
	// Every row of singleentry holds one entry; rows 0 and 6 hit the
	// diagonal.
	se := mats["singleentry"]
	for i := 0; i < se.Rows; i++ {
		se.Col = append(se.Col, int32(i*5%11))
		se.Val = append(se.Val, float64(i)/3-1.5)
		se.RowPtr[i+1] = i + 1
	}

	// regular: a 2600-row band of 5 to 9 entries per row whose values
	// are mostly not float32-exact, so f32 storage really rounds.
	n := 2600
	reg := &Matrix{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		w := 2 + i%3
		for j := max(i-w, 0); j <= min(i+w, n-1); j++ {
			reg.Col = append(reg.Col, int32(j))
			reg.Val = append(reg.Val, float64((i*31+j*17)%29-14)/7)
		}
		reg.RowPtr[i+1] = len(reg.Col)
	}
	mats["regular"] = reg

	// extreme: values at ±MaxFloat32, just inside it (rounds in f32),
	// float32 subnormals, and magnitudes that underflow to f32 zero.
	edges := []float64{
		math.MaxFloat32, -math.MaxFloat32, 0.999999 * math.MaxFloat32,
		1e-40, -3e-42, 1e-45, 1e-50, -2.5, 1.0 / 3,
	}
	ext := sellTestMatrix(40, 40)
	for p := range ext.Val {
		ext.Val[p] = edges[p%len(edges)]
	}
	mats["extreme"] = ext
	return mats
}

// refOperators builds every operator under test for a: the matrix
// itself, SELL and SELL32 at several sort scopes (including scopes
// larger than the matrix), CSR32, and the FormatAuto constructors at
// both precisions.
func refOperators(t *testing.T, a *Matrix) map[string]Operator {
	t.Helper()
	ops := map[string]Operator{"matrix": a}
	add := func(name string, op Operator, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops[name] = op
	}
	for _, sigma := range []int{0, SellC, 64, 1 << 20} {
		s, err := NewSELL(a, sigma)
		add(fmt.Sprintf("sell/sigma=%d", sigma), s, err)
		s32, err := NewSELL32(a, sigma)
		add(fmt.Sprintf("sell32/sigma=%d", sigma), s32, err)
	}
	c32, err := NewCSR32(a)
	add("csr32", c32, err)
	auto, err := NewOperator(a, FormatAuto, 0)
	add("auto/f64", auto, err)
	auto32, err := NewOperatorPrec(a, FormatAuto, 0, PrecisionF32)
	add("auto/f32", auto32, err)
	return ops
}

// checkAgainstRef runs every kernel of op at every worker count and
// compares each result bitwise with the naive reference.
func checkAgainstRef(t *testing.T, name string, op Operator, ref refCSR) {
	t.Helper()
	a := ref.a
	rows, cols := a.Rows, a.Cols
	if r, c := op.Dims(); r != rows || c != cols {
		t.Fatalf("%s: Dims %dx%d, want %dx%d", name, r, c, rows, cols)
	}
	if op.NNZ() != a.NNZ() {
		t.Fatalf("%s: NNZ %d, want %d", name, op.NNZ(), a.NNZ())
	}
	n := max(rows, cols)
	x := make([]float64, cols)
	src := make([]float64, n) // Jacobi reads src by row and by column
	b := make([]float64, rows)
	dinv := make([]float64, rows)
	for i := range x {
		x[i] = (float64(i%23) - 11) / 7
	}
	for i := range src {
		src[i] = float64(i%7) - 3.125
	}
	for i := range b {
		b[i] = float64(i%11)/3 - 1.75
		dinv[i] = 1 / (2 + float64(i%5))
	}
	const omega = 0.7
	want := make([]float64, rows)
	got := make([]float64, rows)
	for _, workers := range []int{1, 2, 8} {
		rt := par.New(workers)
		tag := fmt.Sprintf("%s/workers=%d/", name, workers)

		for i := range want {
			want[i] = ref.dot(i, x, 1, 0)
		}
		op.SpMV(rt, x, got)
		bitsEqual(t, tag+"SpMV", got, want)

		for i := range want {
			want[i] = b[i] - ref.dot(i, x, 1, 0)
		}
		op.SpMVResidual(rt, b, x, got)
		bitsEqual(t, tag+"SpMVResidual", got, want)

		for i := range want {
			want[i] = b[i] + ref.dot(i, x, 1, 0)
		}
		copy(got, b)
		op.SpMVAdd(rt, x, got)
		bitsEqual(t, tag+"SpMVAdd", got, want)

		for i := range want {
			want[i] = src[i] + omega*dinv[i]*(b[i]-ref.dot(i, src, 1, 0))
		}
		op.JacobiSweep(rt, b, dinv, omega, src, got)
		bitsEqual(t, tag+"JacobiSweep", got, want)

		for i := range want {
			want[i] = ref.diag(i)
		}
		op.DiagonalInto(rt, got)
		bitsEqual(t, tag+"DiagonalInto", got, want)

		for _, k := range []int{1, 2, 4, 5, 8} {
			xk := make([]float64, cols*k)
			for i := range xk {
				xk[i] = float64(i%19)/5 - 1.8
			}
			wantK := make([]float64, rows*k)
			for i := 0; i < rows; i++ {
				for j := 0; j < k; j++ {
					wantK[i*k+j] = ref.dot(i, xk, k, j)
				}
			}
			gotK := make([]float64, rows*k)
			op.SpMM(rt, k, xk, gotK)
			bitsEqual(t, fmt.Sprintf("%sSpMM/k=%d", tag, k), gotK, wantK)
		}
	}
}

// TestOperatorsMatchNaiveReference is the differential oracle for the
// operator kernels: every format and precision, every kernel, at 1, 2
// and 8 workers, bitwise against the naive row loop.
func TestOperatorsMatchNaiveReference(t *testing.T) {
	for mname, a := range refMatrices() {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", mname, err)
		}
		for oname, op := range refOperators(t, a) {
			ref := refCSR{a: a, f32: OperatorPrecision(op) == PrecisionF32}
			checkAgainstRef(t, mname+"/"+oname, op, ref)
		}
	}
	// FormatAuto must reach the SELL kernels on the regular matrix, or
	// the auto rows above test CSR twice.
	reg := refMatrices()["regular"]
	if ChooseFormat(reg) != FormatSELL {
		t.Fatal("regular test matrix does not select SELL under FormatAuto")
	}
}

// TestFillValuesMatchesNaiveReference round-trips the value refresh of
// every value-caching operator: fill new same-pattern values, check all
// kernels against the reference on the new values, fill the originals
// back, and check again.
func TestFillValuesMatchesNaiveReference(t *testing.T) {
	for mname, a := range refMatrices() {
		next := a.Clone()
		for p, v := range next.Val {
			next.Val[p] = -v/3 + float64(p%5)/7
		}
		for oname, op := range refOperators(t, a) {
			f, ok := op.(ValueFiller)
			if !ok {
				continue
			}
			f32 := OperatorPrecision(op) == PrecisionF32
			for _, vals := range []*Matrix{next, a} {
				if err := f.FillValues(vals); err != nil {
					t.Fatalf("%s/%s: FillValues: %v", mname, oname, err)
				}
				checkAgainstRef(t, mname+"/"+oname+"/refilled", op, refCSR{a: vals, f32: f32})
			}
		}
	}
}

// The plan half of the differential suite replays every cached SpGEMM
// plan on seeded random matrices and compares it bitwise with naive
// first-touch row loops written here: an output entry starts as the
// first product that reaches it (not 0 + product) and adds the rest in
// traversal order (rows of the left operand in order, each entry
// expanded over its right-operand row); rows come out in column order.

// refRowProducts accumulates row i of (scale_i*A)*B by the naive rule
// into a column map, where scale is nil for a plain product.
func refRowProducts(a, b *Matrix, scale []float64, i int) map[int32]float64 {
	row := map[int32]float64{}
	for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
		ak := a.Val[p]
		if scale != nil {
			ak = scale[i] * ak
		}
		k := a.Col[p]
		for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
			j := b.Col[q]
			if s, ok := row[j]; ok {
				row[j] = s + ak*b.Val[q]
			} else {
				row[j] = ak * b.Val[q]
			}
		}
	}
	return row
}

// refProduct is the naive A*B.
func refProduct(a, b *Matrix) *Matrix {
	c := &Matrix{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		row := refRowProducts(a, b, nil, i)
		for _, j := range slices.Sorted(maps.Keys(row)) {
			c.Col = append(c.Col, j)
			c.Val = append(c.Val, row[j])
		}
		c.RowPtr[i+1] = len(c.Col)
	}
	return c
}

// refTranspose is the naive A^T: column buckets filled in row order.
func refTranspose(a *Matrix) *Matrix {
	cols := make([][]int32, a.Cols)
	vals := make([][]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.Col[p]
			cols[j] = append(cols[j], int32(i))
			vals[j] = append(vals[j], a.Val[p])
		}
	}
	t := &Matrix{Rows: a.Cols, Cols: a.Rows, RowPtr: make([]int, a.Cols+1)}
	for j := range cols {
		t.Col = append(t.Col, cols[j]...)
		t.Val = append(t.Val, vals[j]...)
		t.RowPtr[j+1] = len(t.Col)
	}
	return t
}

// refSmooth is the naive (I - omega*D^{-1}*A)*P0: the product row of
// D^{-1}A*P0 by the naive rule, united with the P0 row; an entry in
// both is p0 + -omega*product.
func refSmooth(a, p0 *Matrix, dinv []float64, omega float64) *Matrix {
	c := &Matrix{Rows: a.Rows, Cols: p0.Cols, RowPtr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		prod := refRowProducts(a, p0, dinv, i)
		p0Row := map[int32]float64{}
		for q := p0.RowPtr[i]; q < p0.RowPtr[i+1]; q++ {
			p0Row[p0.Col[q]] = p0.Val[q]
		}
		union := slices.Sorted(maps.Keys(prod))
		for j := range p0Row {
			if _, ok := prod[j]; !ok {
				union = append(union, j)
			}
		}
		slices.Sort(union)
		for _, j := range union {
			pv, inProd := prod[j]
			qv, inP0 := p0Row[j]
			v := qv
			switch {
			case inProd && inP0:
				v = qv + -omega*pv
			case inProd:
				v = -omega * pv
			}
			c.Col = append(c.Col, j)
			c.Val = append(c.Val, v)
		}
		c.RowPtr[i+1] = len(c.Col)
	}
	return c
}

// seededSparse returns a rows x cols matrix with 0..maxRow entries per
// row at distinct random columns, so about one row in maxRow+1 is
// empty; one value in 16 is a signed zero.
func seededSparse(rng *rand.Rand, rows, cols, maxRow int) *Matrix {
	m := &Matrix{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		picked := map[int32]bool{}
		for k := min(rng.Intn(maxRow+1), cols); len(picked) < k; {
			picked[int32(rng.Intn(cols))] = true
		}
		for _, j := range slices.Sorted(maps.Keys(picked)) {
			v := rng.NormFloat64()
			switch rng.Intn(32) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			}
			m.Col = append(m.Col, j)
			m.Val = append(m.Val, v)
		}
		m.RowPtr[i+1] = len(m.Col)
	}
	return m
}

// keepRows returns a copy of m in which only every k-th row keeps its
// entries.
func keepRows(m *Matrix, k int) *Matrix {
	out := &Matrix{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		if i%k == 0 {
			out.Col = append(out.Col, m.Col[m.RowPtr[i]:m.RowPtr[i+1]]...)
			out.Val = append(out.Val, m.Val[m.RowPtr[i]:m.RowPtr[i+1]]...)
		}
		out.RowPtr[i+1] = len(out.Col)
	}
	return out
}

// refPlanCases are the differential plan inputs, C = A*B: products
// large enough to split over 8 workers with empty rows on both sides, a
// B with mostly empty rows (empty output rows whose A row is not), an
// empty product, a zero-row product, and dense rows that take the
// mark/acc fallback instead of the scatter schedule.
func refPlanCases() map[string][2]*Matrix {
	rng := rand.New(rand.NewSource(1307))
	n := 4700
	empty := &Matrix{Rows: 0, Cols: 0, RowPtr: []int{0}}
	normal := func(int, int) float64 { return rng.NormFloat64() }
	return map[string][2]*Matrix{
		"random":       {seededSparse(rng, n, n, 8), seededSparse(rng, n, 900, 3)},
		"sparseB":      {seededSparse(rng, n, n, 6), keepRows(seededSparse(rng, n, 700, 4), 5)},
		"emptyproduct": {seededSparse(rng, 1500, 1500, 5), &Matrix{Rows: 1500, Cols: 40, RowPtr: make([]int, 1501)}},
		"zerorows":     {empty, empty},
		"dense":        {denseRows(1100, 30, normal), denseRows(30, 60, normal)},
	}
}

// TestPlanReplaysMatchNaiveReference is the differential oracle for the
// cached plans: ProductPlan, TransposePlan, and (for square A, with
// P = B) SmoothPlan and RAPPlan, each planned at 1, 2 and 8 workers and
// replayed at 1, 2 and 8 workers into a result poisoned with NaN,
// bitwise against the naive loops above.
func TestPlanReplaysMatchNaiveReference(t *testing.T) {
	const omega = 0.64
	workers := []int{1, 2, 8}
	for name, tc := range refPlanCases() {
		a, b := tc[0], tc[1]
		for _, m := range tc {
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		wantC := refProduct(a, b)
		wantT := refTranspose(a)
		square := a.Rows == a.Cols
		var dinv []float64
		var r, wantS, wantRAP *Matrix
		if square {
			dinv = make([]float64, a.Rows)
			for i := range dinv {
				dinv[i] = 1 / (1.5 + float64(i%7))
			}
			wantS = refSmooth(a, b, dinv, omega)
			r = refTranspose(b)
			wantRAP = refProduct(r, wantC)
		}
		for _, pw := range workers {
			prt := par.New(pw)
			pp, err := PlanMultiply(prt, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if fallback := pp.flopPtr == nil; fallback != (name == "dense") {
				t.Fatalf("%s: product plan fallback = %v", name, fallback)
			}
			tp := PlanTranspose(prt, a)
			var sp *SmoothPlan
			var rp *RAPPlan
			if square {
				if sp, err = PlanSmoothProlongator(prt, a, b); err != nil {
					t.Fatal(err)
				}
				if rp, err = PlanRAP(prt, r, a, b); err != nil {
					t.Fatal(err)
				}
			}
			for _, rw := range workers {
				rt := par.New(rw)
				tag := fmt.Sprintf("%s/plan=%d/replay=%d/", name, pw, rw)
				c := poisoned(pp.NewMatrix())
				if err := pp.Replay(rt, a, b, c); err != nil {
					t.Fatal(err)
				}
				matricesEqual(t, tag+"product", c, wantC)
				tr := poisoned(tp.NewMatrix())
				if err := tp.Replay(rt, a, tr); err != nil {
					t.Fatal(err)
				}
				matricesEqual(t, tag+"transpose", tr, wantT)
				if !square {
					continue
				}
				s := poisoned(sp.NewMatrix())
				if err := sp.Replay(rt, a, b, dinv, omega, s); err != nil {
					t.Fatal(err)
				}
				matricesEqual(t, tag+"smooth", s, wantS)
				g := poisoned(rp.NewMatrix())
				if err := rp.Replay(rt, r, a, b, g); err != nil {
					t.Fatal(err)
				}
				matricesEqual(t, tag+"rap", g, wantRAP)
			}
		}
	}
}

// poisoned fills m's values with NaN, so a replay that skips an entry
// cannot pass.
func poisoned(m *Matrix) *Matrix {
	for p := range m.Val {
		m.Val[p] = math.NaN()
	}
	return m
}
