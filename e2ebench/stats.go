package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// latencies collects per-operation latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/1e6) }

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

// tailLevel is the highest quantile, at most want, that leaves at least
// minBeyond of n samples strictly beyond its nearest rank. It returns 0
// when n is too small for any tail.
func tailLevel(n int, want float64) float64 {
	if n <= minBeyond {
		return 0
	}
	// With nearest rank r = ceil(q·n), n−r samples lie beyond; the
	// largest q with n−r >= minBeyond is (n−minBeyond)/n.
	return math.Min(want, float64(n-minBeyond)/float64(n))
}

// summary is the median and the tail of one latency distribution.
type summary struct {
	n         int
	p50, tail float64
	tailLevel float64
}

// summarize sorts l and reports its median and the tail percentile want,
// lowered to the highest one with minBeyond samples beyond it.
func (l latencies) summarize(want float64) (summary, error) {
	s := summary{n: len(l)}
	if s.n == 0 {
		return s, fmt.Errorf("no samples")
	}
	sorted := append([]float64(nil), l...)
	sort.Float64s(sorted)
	s.p50 = percentile(sorted, 0.5)
	s.tailLevel = tailLevel(s.n, want)
	if s.tailLevel == 0 {
		return s, fmt.Errorf("%d samples: too few for a tail with %d beyond", s.n, minBeyond)
	}
	s.tail = percentile(sorted, s.tailLevel)
	return s, nil
}

// median of a small sample set (e.g. repeated set-ups or recoveries).
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
