package sparse

import (
	"reflect"
	"testing"
)

// TestMatrixKernelLayout pins the layout identity Matrix.kernels relies
// on: Matrix and csrOp[float64] have the same fields, in order, at the
// same offsets and with the same types.
func TestMatrixKernelLayout(t *testing.T) {
	m := reflect.TypeOf(Matrix{})
	k := reflect.TypeOf(csrOp[float64]{})
	if m.Size() != k.Size() || m.NumField() != k.NumField() {
		t.Fatalf("Matrix is %d bytes in %d fields, csrOp[float64] %d bytes in %d fields",
			m.Size(), m.NumField(), k.Size(), k.NumField())
	}
	for i := 0; i < m.NumField(); i++ {
		mf, kf := m.Field(i), k.Field(i)
		if mf.Offset != kf.Offset || mf.Type != kf.Type {
			t.Errorf("field %d: Matrix.%s %v at %d, csrOp[float64].%s %v at %d",
				i, mf.Name, mf.Type, mf.Offset, kf.Name, kf.Type, kf.Offset)
		}
	}
}
