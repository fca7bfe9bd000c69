package metrics

import (
	"math"
	"sync/atomic"
)

// Histogram counts observations into fixed, ascending buckets with
// Prometheus `le` (less-or-equal) semantics: an observation lands in the
// first bucket whose upper bound is >= the value, and anything above the
// last bound lands in the implicit +Inf overflow bucket. Observe is
// lock-free and allocation-free: bucket counts are atomic uint64s and
// the running sum is a float64 CAS-updated through its bit pattern, so
// the hot paths of the engine and the DHT can observe on every
// operation.
//
// Bucket bounds are fixed at construction. The registry guarantees every
// histogram in a family shares the same bounds, so exported series are
// aggregatable. A nil *Histogram is a disabled handle: Observe is a
// no-op, Count and Sum return 0, and Snapshot is empty.
type Histogram struct {
	bounds []float64       // ascending upper bounds, excluding +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	total  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// newHistogram validates bounds (finite, strictly ascending, non-empty)
// and builds the histogram. The registry copies bounds before calling.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("metrics: histogram bounds must be finite (+Inf bucket is implicit)")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
//
//mdrep:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramSnapshot is a consistent-enough point-in-time copy for export:
// per-bucket counts (last entry is +Inf), total, and sum. Concurrent
// observers may race individual fields, which Prometheus scrapes
// tolerate; tests quiesce writers before snapshotting.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.total.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket that holds the target rank, the same estimate
// Prometheus's histogram_quantile computes. Values in the +Inf bucket
// clamp to the last finite bound. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	s := h.Snapshot()
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return snapshotQuantile(&s, q)
}

// ExpBuckets returns n strictly ascending bounds starting at start and
// multiplying by factor — the standard shape for latency and size
// distributions.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets covers 10µs–80s in powers of two, a sensible default
// for RPC and build latencies measured in seconds.
var DurationBuckets = ExpBuckets(10e-6, 2, 23)

// SizeBuckets covers 64B–2GiB in powers of four, for payload and
// snapshot sizes measured in bytes.
var SizeBuckets = ExpBuckets(64, 4, 13)
