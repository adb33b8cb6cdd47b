package hotalloc

import "par"

// value mirrors the operator value-type constraint: one kernel body,
// instantiated for float32 and float64 storage.
type value interface{ float32 | float64 }

// genericOp proves annotations are matched on methods of generic types,
// so kernels written once over V stay checked.
type genericOp[V value] struct {
	col []int32
	val []V
}

// Apply is the clean generic form: a par participant closure whose
// body widens each stored value with float64(v).
//
//amg:hotpath
func (g genericOp[V]) Apply(rt *par.Runtime, x, y []float64) {
	rt.For(len(y), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = float64(g.val[i]) * x[g.col[i]]
		}
	})
}

// Scratch allocates inside a generic body.
//
//amg:hotpath
func (g *genericOp[V]) Scratch(n int) []V {
	return make([]V, n) // want `calls make`
}

// widenAll is a generic free function with an allocating closure.
//
//amg:hotpath
func widenAll[V value](vals []V, out []float64) {
	widen := func(v V) float64 { return float64(v) } // want `creates a closure`
	for i, v := range vals {
		out[i] = widen(v)
	}
}
