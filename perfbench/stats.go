package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a list of measurements of one quantity, in the quantity's
// reporting unit.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// addDur records a duration converted by scale (seconds per unit: 1 for
// seconds, 1e-3 for milliseconds, 1e-6 for microseconds).
func (s *samples) addDur(d time.Duration, scale float64) { s.add(d.Seconds() / scale) }

// quantile returns the q-quantile (0 <= q <= 1) of s by linear
// interpolation between closest ranks (the "R-7" definition used by
// numpy's default and by spreadsheet PERCENTILE). It returns NaN for an
// empty sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	if q <= 0 {
		return v[0]
	}
	if q >= 1 {
		return v[len(v)-1]
	}
	h := q * float64(len(v)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(v) {
		return v[lo]
	}
	return v[lo] + (h-float64(lo))*(v[lo+1]-v[lo])
}

func median(s []float64) float64 { return quantile(s, 0.5) }

// minRounds is the fewest rounds a stage measures, however short the
// budget.
const minRounds = 8

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least ten of n samples beyond it, or 0 when n is too small for any
// (fewer than 40 samples). A percentile with fewer samples beyond it is
// decided by a handful of outliers and does not repeat.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// summary is the reported form of a timing: its median (the gated
// value), the highest percentile with ten samples beyond it, and the
// sample count.
type summary struct {
	Median float64 `json:"median"`
	Tail   float64 `json:"tail_percentile,omitempty"`
	TailV  float64 `json:"tail_value,omitempty"`
	N      int     `json:"n"`
	// Samples are the raw measurements, in the metric's unit.
	Samples []float64 `json:"samples"`
}

func summarize(s []float64) summary {
	sm := summary{Median: median(s), N: len(s), Samples: s}
	if p := tailPercentile(len(s)); p > 0 {
		sm.Tail, sm.TailV = p, quantile(s, p/100)
	}
	return sm
}

func (sm summary) String() string {
	if sm.Tail == 0 {
		return fmt.Sprintf("median of n=%d", sm.N)
	}
	return fmt.Sprintf("median of n=%d; p%g %.6g", sm.N, sm.Tail, sm.TailV)
}
