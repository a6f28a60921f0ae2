package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile
// for it to count as measured rather than extrapolated.
const minTail = 10

// tailLadder is the set of percentiles the benchmark may report as a
// distribution's tail, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// rankOf is the 1-based nearest-rank position of percentile p in n sorted
// samples: the smallest rank r with r/n ≥ p/100. The tolerance keeps
// p/100*n from rounding up past an exact integer (0.999*1000).
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples strictly above the nearest-rank
// percentile p of n samples.
func beyond(p float64, n int) int { return n - rankOf(p, n) }

// supported reports whether n samples leave at least minTail samples beyond
// percentile p.
func supported(p float64, n int) bool { return n > 0 && beyond(p, n) >= minTail }

// tailPercentile is the highest percentile of tailLadder that n samples
// support, or 0 when even the median has fewer than minTail samples beyond
// it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if supported(p, n) {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the middle two for even
// counts).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// the rule the benchmark's spread is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
