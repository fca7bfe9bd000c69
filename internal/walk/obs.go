package walk

import (
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

// Walk instrumentation follows the sparse-kernel pattern: an atomically
// installed package singleton so un-instrumented estimators pay one
// pointer load per estimate (not per step) and then call the zero
// observer's nil, no-op handles. Counters accumulate per estimate and
// flush once, keeping the per-step sampling loop untouched.
type walkObs struct {
	clock    obs.Clock
	estimate *metrics.Histogram // one full walk ensemble
	fetch    *metrics.Histogram // one DHT row fetch (cache misses only)
	walks    *metrics.Counter   // walks launched
	steps    *metrics.Counter   // row transitions sampled
	died     *metrics.Counter   // walks that hit a dangling row
	done     *metrics.Counter   // estimates completed
	aborted  *metrics.Counter   // estimates aborted by a row-fetch error
	hits     *metrics.Counter   // row-cache hits
	misses   *metrics.Counter   // row-cache misses
	evicted  *metrics.Counter   // row-cache evictions
	fetchErr *metrics.Counter   // row fetches that failed
	cacheLen *metrics.Gauge     // rows currently cached
	hitRatio *metrics.Gauge     // hits / (hits + misses), derived on update
}

var wobs obs.Slot[walkObs]

// Instrument publishes walk metrics into reg, timed by clock. A nil
// registry (or Uninstrument) turns instrumentation back off.
func Instrument(reg *metrics.Registry, clock obs.Clock) {
	if reg == nil {
		wobs.Store(nil)
		return
	}
	wobs.Store(&walkObs{
		clock:    clock,
		estimate: reg.Histogram("walk_estimate_seconds", metrics.DurationBuckets),
		fetch:    reg.Histogram("walk_row_fetch_seconds", metrics.DurationBuckets),
		walks:    reg.Counter("walk_walks_total"),
		steps:    reg.Counter("walk_steps_total"),
		died:     reg.Counter("walk_died_total"),
		done:     reg.Counter("walk_estimates_total"),
		aborted:  reg.Counter("walk_estimates_aborted_total"),
		hits:     reg.Counter("walk_row_cache_hits_total"),
		misses:   reg.Counter("walk_row_cache_misses_total"),
		evicted:  reg.Counter("walk_row_cache_evictions_total"),
		fetchErr: reg.Counter("walk_row_fetch_errors_total"),
		cacheLen: reg.Gauge("walk_cache_size"),
		hitRatio: reg.Gauge("walk_cache_hit_ratio"),
	})
}

// Uninstrument disables walk instrumentation.
func Uninstrument() { wobs.Store(nil) }

// updateHitRatio derives hits/(hits+misses) so cache effectiveness is a
// scrapeable gauge instead of two counters to divide by hand.
func (w *walkObs) updateHitRatio() {
	h, m := w.hits.Load(), w.misses.Load()
	if total := h + m; total > 0 {
		w.hitRatio.Set(float64(h) / float64(total))
	}
}
