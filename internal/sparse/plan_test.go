package sparse

import (
	"math"
	"testing"

	"mis2go/internal/par"
)

// matricesEqual requires identical patterns and bit-identical values
// (so -0 and +0 differ).
func matricesEqual(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d]=%d, want %d", label, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	if len(got.Col) != len(want.Col) {
		t.Fatalf("%s: nnz %d, want %d", label, len(got.Col), len(want.Col))
	}
	for p := range want.Col {
		if got.Col[p] != want.Col[p] {
			t.Fatalf("%s: Col[%d]=%d, want %d", label, p, got.Col[p], want.Col[p])
		}
		if math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
			t.Fatalf("%s: Val[%d]=%v, want %v (not bitwise identical)", label, p, got.Val[p], want.Val[p])
		}
	}
}

// perturb returns a copy of a with deterministically rescaled values —
// the "same pattern, new values" refresh input.
func perturb(a *Matrix, seed int) *Matrix {
	b := a.Clone()
	for p := range b.Val {
		b.Val[p] *= 1 + 0.001*float64((p+seed)%17)
	}
	return b
}

var planWorkerCounts = []int{1, 2, 8}

func TestProductPlanMatchesMultiply(t *testing.T) {
	a := randomMatrix(120, 90, 0.06, 1)
	b := randomMatrix(90, 70, 0.08, 2)
	for _, w := range planWorkerCounts {
		rt := par.New(w)
		pl, err := PlanMultiply(rt, a, b)
		if err != nil {
			t.Fatal(err)
		}
		c := pl.NewMatrix()
		// Replay twice (the second replay exercises in-place refill) and
		// against perturbed values.
		for trial, av := range []*Matrix{a, a, perturb(a, 3)} {
			bv := b
			if trial == 2 {
				bv = perturb(b, 5)
			}
			if err := pl.Numeric(rt, av, bv, c); err != nil {
				t.Fatal(err)
			}
			want, err := Multiply(rt, av, bv)
			if err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, "product replay", c, want)
			if err := c.Validate(); err != nil {
				t.Fatalf("replayed product invalid: %v", err)
			}
		}
	}
}

func TestProductPlanRejectsPatternChange(t *testing.T) {
	rt := par.New(1)
	a := randomMatrix(40, 30, 0.1, 7)
	b := randomMatrix(30, 20, 0.1, 8)
	pl, err := PlanMultiply(rt, a, b)
	if err != nil {
		t.Fatal(err)
	}
	c := pl.NewMatrix()
	a2 := randomMatrix(40, 30, 0.1, 9) // different pattern, same shape
	if err := pl.Numeric(rt, a2, b, c); err == nil {
		t.Fatal("replay with changed A pattern not rejected")
	}
	b2 := randomMatrix(30, 20, 0.1, 10)
	if err := pl.Numeric(rt, a, b2, c); err == nil {
		t.Fatal("replay with changed B pattern not rejected")
	}
	if _, err := PlanMultiply(rt, a, randomMatrix(31, 20, 0.1, 11)); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
}

func TestTransposePlanMatchesTranspose(t *testing.T) {
	a := randomMatrix(80, 130, 0.05, 3)
	for _, w := range planWorkerCounts {
		rt := par.New(w)
		pl := PlanTranspose(rt, a)
		tr := pl.NewMatrix()
		for _, av := range []*Matrix{a, perturb(a, 1)} {
			if err := pl.Numeric(rt, av, tr); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, "transpose replay", tr, av.TransposeWith(rt))
		}
	}
	// A plan built at one worker count must replay identically at others
	// (the permutation is blocking-independent).
	rt8 := par.New(8)
	pl8 := PlanTranspose(rt8, a)
	tr8 := pl8.NewMatrix()
	if err := pl8.Numeric(par.New(1), a, tr8); err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, "cross-worker transpose replay", tr8, a.Transpose())
	if err := pl8.Numeric(rt8, randomMatrix(80, 130, 0.05, 4), tr8); err == nil {
		t.Fatal("transpose replay with changed pattern not rejected")
	}
}

// aggregateP0 builds a tentative-prolongator-shaped matrix: one entry
// per row, rows sorted trivially.
func aggregateP0(n, nagg int) *Matrix {
	p := &Matrix{Rows: n, Cols: nagg}
	p.RowPtr = make([]int, n+1)
	p.Col = make([]int32, n)
	p.Val = make([]float64, n)
	for i := 0; i < n; i++ {
		p.RowPtr[i+1] = i + 1
		p.Col[i] = int32(i % nagg)
		p.Val[i] = 1 + float64(i%5)/7
	}
	return p
}

func TestSmoothPlanMatchesSmoothProlongator(t *testing.T) {
	a := randomMatrix(150, 150, 0.04, 6)
	p0 := aggregateP0(150, 31)
	dinv := make([]float64, a.Rows)
	for i := range dinv {
		dinv[i] = 1 / (1 + float64(i%9))
	}
	const omega = 0.61
	for _, w := range planWorkerCounts {
		rt := par.New(w)
		pl, err := PlanSmoothProlongator(rt, a, p0)
		if err != nil {
			t.Fatal(err)
		}
		out := pl.NewMatrix()
		for _, av := range []*Matrix{a, perturb(a, 2)} {
			if err := pl.Numeric(rt, av, p0, dinv, omega, out); err != nil {
				t.Fatal(err)
			}
			want, err := SmoothProlongator(rt, av, p0, dinv, omega)
			if err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, "smooth replay", out, want)
		}
	}
	rt := par.New(1)
	pl, err := PlanSmoothProlongator(rt, a, p0)
	if err != nil {
		t.Fatal(err)
	}
	out := pl.NewMatrix()
	if err := pl.Numeric(rt, randomMatrix(150, 150, 0.04, 12), p0, dinv, omega, out); err == nil {
		t.Fatal("smooth replay with changed A pattern not rejected")
	}
	if err := pl.Numeric(rt, a, p0, dinv[:10], omega, out); err == nil {
		t.Fatal("short dinv not rejected")
	}
}

func TestRAPPlanMatchesRAP(t *testing.T) {
	a := randomMatrix(140, 140, 0.04, 20)
	p := aggregateP0(140, 29)
	for _, w := range planWorkerCounts {
		rt := par.New(w)
		r := p.TransposeWith(rt)
		pl, err := PlanRAP(rt, r, a, p)
		if err != nil {
			t.Fatal(err)
		}
		out := pl.NewMatrix()
		for _, av := range []*Matrix{a, perturb(a, 4)} {
			if err := pl.Numeric(rt, r, av, p, out); err != nil {
				t.Fatal(err)
			}
			want, err := RAP(rt, r, av, p)
			if err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, "RAP replay", out, want)
		}
	}
}

func TestPlanReplayDeterministicAcrossWorkers(t *testing.T) {
	a := randomMatrix(200, 200, 0.03, 30)
	b := randomMatrix(200, 60, 0.05, 31)
	pl, err := PlanMultiply(par.New(1), a, b)
	if err != nil {
		t.Fatal(err)
	}
	ref := pl.NewMatrix()
	if err := pl.Numeric(par.New(1), a, b, ref); err != nil {
		t.Fatal(err)
	}
	for _, w := range planWorkerCounts[1:] {
		c := pl.NewMatrix()
		if err := pl.Numeric(par.New(w), a, b, c); err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, "cross-worker product replay", c, ref)
	}
}

// denseRows returns a rows x cols matrix with every entry stored, valued
// by val(i, j).
func denseRows(rows, cols int, val func(i, j int) float64) *Matrix {
	m := &Matrix{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Col = append(m.Col, int32(j))
			m.Val = append(m.Val, val(i, j))
		}
		m.RowPtr[i+1] = len(m.Col)
	}
	return m
}

// checkProductReplays plans a*b at each worker count, requires the plan
// to take (or not take) the scatter schedule, and checks Numeric and
// Replay bitwise — signed zeros included — against Multiply at every
// worker count.
func checkProductReplays(t *testing.T, label string, a, b *Matrix, wantSchedule bool) {
	t.Helper()
	want, err := Multiply(par.New(1), a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, pw := range planWorkerCounts {
		pl, err := PlanMultiply(par.New(pw), a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := pl.flopPtr != nil; got != wantSchedule {
			t.Fatalf("%s: plan has scatter schedule = %v, want %v", label, got, wantSchedule)
		}
		for _, rw := range planWorkerCounts {
			rt := par.New(rw)
			c := pl.NewMatrix()
			if err := pl.Numeric(rt, a, b, c); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, label+"/Numeric", c, want)
			if err := pl.Replay(rt, a, b, c); err != nil {
				t.Fatal(err)
			}
			matricesEqual(t, label+"/Replay", c, want)
		}
	}
}

// TestProductPlanFallbackMatchesMultiply covers the mark/acc replay: a
// product of dense rows by dense columns does far more multiply-adds
// than maxScheduleFlopsFactor allows per stored operand/result entry,
// so the plan must skip the scatter schedule and still replay bitwise.
// Rows past 1024 make the replay split at 2 and 8 workers.
func TestProductPlanFallbackMatchesMultiply(t *testing.T) {
	a := denseRows(1100, 30, func(i, j int) float64 { return float64((i*7+j*3)%13-6) / 5 })
	b := denseRows(30, 60, func(i, j int) float64 { return float64((i*5+j*11)%17-8) / 3 })
	// Empty rows in A exercise the fallback's row bookkeeping.
	for i := 0; i < a.Rows; i += 9 {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			a.Val[p] = 0
		}
	}
	checkProductReplays(t, "fallback", a, b, false)
	checkProductReplays(t, "fallback/perturbed", perturb(a, 3), perturb(b, 8), false)
}

// TestPlanReplayPreservesSignedZeros pins the signed-zero contract the
// scatter schedule's -0 initialization relies on: an entry whose every
// contribution is -0 stays -0, one that mixes +0 and -0 becomes +0, and
// ±0 added to a nonzero leaves it unchanged — on the schedule path and
// the fallback path, at every worker count.
func TestPlanReplayPreservesSignedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// parity makes A(i,k)*B(k,j) = -0 exactly when i+j is odd, for every
	// k: whole entries of -0 products. hashed mixes the signs within an
	// entry. signed adds ±1 values, so zeros meet nonzeros.
	parity := func(i, j int) float64 { return [...]float64{0, negZero}[(i+j)%2] }
	hashed := func(i, j int) float64 { return [...]float64{0, negZero, negZero}[(i*7+j*13+i*j)%3] }
	signed := func(i, j int) float64 { return [...]float64{0, negZero, 1, -1}[(i+2*j)%4] }
	// band is a tridiagonal-shaped matrix: few contributions per entry,
	// well inside the schedule's flop bound.
	band := func(rows, cols int, val func(i, j int) float64) *Matrix {
		m := &Matrix{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
		for i := 0; i < rows; i++ {
			for j := max(i-1, 0); j <= min(i+1, cols-1); j++ {
				m.Col = append(m.Col, int32(j))
				m.Val = append(m.Val, val(i, j))
			}
			m.RowPtr[i+1] = len(m.Col)
		}
		return m
	}
	const n = 1300
	cases := []struct {
		label              string
		a, b               *Matrix
		schedule           bool
		negZeros, posZeros bool // the product must hold -0 / +0 entries
	}{
		{"schedule/parity", band(n, n, parity), band(n, n, parity), true, true, true},
		{"schedule/hashed", band(n, n, hashed), band(n, n, hashed), true, true, true},
		{"schedule/signed", band(n, n, signed), band(n, n, hashed), true, false, false},
		{"fallback/parity", denseRows(1100, 30, parity), denseRows(30, 60, parity), false, true, true},
		{"fallback/hashed", denseRows(1100, 30, hashed), denseRows(30, 60, hashed), false, false, true},
		{"fallback/signed", denseRows(1100, 30, signed), denseRows(30, 60, hashed), false, false, false},
	}
	for _, tc := range cases {
		want, err := Multiply(par.New(1), tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		neg, pos := 0, 0
		for _, v := range want.Val {
			switch {
			case v == 0 && math.Signbit(v):
				neg++
			case v == 0:
				pos++
			}
		}
		if tc.negZeros && neg == 0 || tc.posZeros && pos == 0 {
			t.Fatalf("%s: product holds %d -0 and %d +0 entries, the case tests nothing", tc.label, neg, pos)
		}
		checkProductReplays(t, tc.label, tc.a, tc.b, tc.schedule)
	}
}
