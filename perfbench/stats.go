package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vals, sorting vals in place; 0 for an empty slice.
func Percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(p / 100 * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(vals) {
		rank = len(vals)
	}
	return vals[rank-1]
}

// Median is the 50th percentile.
func Median(vals []float64) float64 { return Percentile(vals, 50) }

// Mean returns the arithmetic mean, 0 for an empty slice.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Samples is a concurrency-safe list of durations.
type Samples struct {
	mu   sync.Mutex
	vals []float64 // nanoseconds
}

// Add records one duration.
func (s *Samples) Add(d time.Duration) {
	s.mu.Lock()
	s.vals = append(s.vals, float64(d))
	s.mu.Unlock()
}

// Len returns the number of samples.
func (s *Samples) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// Pct returns the p-th percentile in the given unit.
func (s *Samples) Pct(p float64, unit time.Duration) float64 {
	s.mu.Lock()
	vals := append([]float64(nil), s.vals...)
	s.mu.Unlock()
	return Percentile(vals, p) / float64(unit)
}

// MeanIn returns the mean in the given unit.
func (s *Samples) MeanIn(unit time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Mean(s.vals) / float64(unit)
}

// interval is a half-open [start, end) span of time in nanoseconds.
type interval struct{ start, end int64 }

// SelfTime returns the part of parent not covered by any child,
// counting overlapping children once and clipping children to parent.
func SelfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	curStart, curEnd := int64(0), int64(-1)
	for _, c := range clipped {
		if curEnd < curStart || c.start > curEnd {
			if curEnd >= curStart {
				covered += curEnd - curStart
			}
			curStart, curEnd = c.start, c.end
			continue
		}
		if c.end > curEnd {
			curEnd = c.end
		}
	}
	if curEnd >= curStart {
		covered += curEnd - curStart
	}
	return (parent.end - parent.start) - covered
}
