// Package obs is the tracing side of the observability layer: one span
// type (Span) that can time a region into a metrics.Histogram, record a
// causal span into the flight ring, or both, built around injectable
// clocks so the deterministic packages (core, sparse, journal, dht,
// peer — see the wallclock analyzer) never read wall time themselves.
// Binaries pass obs.WallClock; tests and simulations inject a virtual
// clock; a nil clock or nil histogram leaves the timing side inert at
// the cost of one branch, which is how instrumentation stays out of the
// replay-determinism and benchmark budgets when unused.
package obs

import (
	"sync/atomic"
	"time"
)

// Clock supplies the current time. The deterministic packages must only
// obtain a Clock by injection — referencing WallClock (or time.Now)
// inside them is flagged by the wallclock analyzer.
type Clock func() time.Time

// WallClock is the real-time clock for daemons and command-line tools.
func WallClock() time.Time { return time.Now() }

// Slot holds a package's atomically installed observer. Load never
// returns nil: an empty slot yields a pointer to T's zero value — the
// disabled observer, whose nil metric handles are no-ops — so call
// sites use the handles without checking.
type Slot[T any] struct {
	p    atomic.Pointer[T]
	zero T
}

// Load returns the installed observer, or the zero observer.
func (s *Slot[T]) Load() *T {
	if p := s.p.Load(); p != nil {
		return p
	}
	return &s.zero
}

// Store installs p; nil uninstalls.
func (s *Slot[T]) Store(p *T) { s.p.Store(p) }
