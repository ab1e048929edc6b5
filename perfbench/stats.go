package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how the steadiness of a set of runs is judged. It needs
// at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		switch {
		case j < 1:
			j = 1
		case j > ld-1:
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}

// spread is the quartile distance divided by the median: the figure a
// metric's bound in BENCHMARK.json must cover.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// ms1 converts a duration to float milliseconds.
func ms1(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histQuantile estimates quantile q (0..1) of a bucketed histogram by linear
// interpolation inside the bucket holding the target rank. uppers are the
// bucket upper bounds in increasing order (the last may be +Inf, whose
// bucket is reported at its lower edge); counts are per bucket, not
// cumulative.
func histQuantile(uppers []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = uppers[i-1]
		}
		if cum+float64(c) >= rank {
			hi := uppers[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return uppers[len(uppers)-1] // q > 1
}
