package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// series collects named per-check samples and run totals of a traced run.
type series struct {
	samples map[string][]float64
	totals  map[string]float64
}

func newSeries() *series {
	return &series{samples: map[string][]float64{}, totals: map[string]float64{}}
}

func (s *series) add(name string, v float64)   { s.samples[name] = append(s.samples[name], v) }
func (s *series) total(name string, v float64) { s.totals[name] += v }

// med is the median of a named series (0 when never sampled: the workload
// does not reach that layer).
func (s *series) med(name string) float64 { return median(s.samples[name]) }

// per is the run-total ratio of two named totals (0 when den is 0).
func (s *series) per(num, den string) float64 {
	if s.totals[den] == 0 {
		return 0
	}
	return s.totals[num] / s.totals[den]
}
