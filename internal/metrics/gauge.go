package metrics

import (
	"math"
	"sync/atomic"
)

// Gauge is a concurrency-safe float64 value that can go up and down —
// queue depths, last-seen sizes, current ring position. The float is
// stored as its IEEE-754 bit pattern in a uint64 so reads and writes are
// single atomic operations. A nil *Gauge is a disabled handle: updates
// are no-ops and Load returns 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by delta (negative deltas decrement). The
// CAS loop makes concurrent Adds linearisable without a lock.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
