package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between the two nearest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// beyond is how many of n samples lie above the p-th percentile. The
// report prints it next to every tail so a reader can see whether the
// percentile is supported (ten or more) or is the sample's fringe.
func beyond(n int, p float64) int {
	return int(float64(n) * (100 - p) / 100)
}

// sample is a set of timings in one unit.
type sample []float64

// pct sorts the sample in place and returns its p-th percentile.
func (s sample) pct(p float64) float64 {
	sort.Float64s(s)
	return percentile(s, p)
}

// quartiles reproduces Python's statistics.quantiles(values, n=4), the
// rule the regression gate applies to repeated runs, so that -repeat
// prints the spread the gate will see.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n < 2 {
		if n == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread summarises repeated runs of one metric.
type spread struct {
	Median, Q1, Q3 float64
	// IQR is (Q3-Q1)/median, Range is (max-min)/median.
	IQR, Range float64
}

func spreadOf(values []float64) spread {
	q1, q2, q3 := quartiles(values)
	s := spread{Median: q2, Q1: q1, Q3: q3}
	if q2 != 0 && len(values) > 1 {
		lo, hi := values[0], values[0]
		for _, v := range values {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		s.IQR = (q3 - q1) / q2
		s.Range = (hi - lo) / q2
	}
	return s
}
