package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single-value percentile = %v", got)
	}
}

// The vectors are Python's statistics.quantiles(xs, n=4) outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.7, 5.0, 4.4}, [3]float64{2.8000000000000003, 3.75, 4.85}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Errorf("quartiles of one value should not be ok")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestHistQuantile(t *testing.T) {
	uppers := []float64{1, 2, 4, math.Inf(1)}
	counts := []uint64{0, 10, 10, 0}
	if got := histQuantile(uppers, counts, 0.5); !near(got, 2) {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := histQuantile(uppers, counts, 0.75); !near(got, 3) {
		t.Errorf("p75 = %v, want 3", got)
	}
	if got := histQuantile(uppers, []uint64{0, 0, 0, 4}, 0.5); got != 4 {
		t.Errorf("overflow-bucket quantile = %v, want its lower edge 4", got)
	}
	if got := histQuantile(uppers, make([]uint64, 4), 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
}

func TestMs1(t *testing.T) {
	if got := ms1(1500 * time.Microsecond); !near(got, 1.5) {
		t.Errorf("ms1 = %v", got)
	}
}
