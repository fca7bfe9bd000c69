package core

import (
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

// EngineObs is the engine's metrics surface: per-dimension build
// latency and dirty-row volume, TM re-freeze (epoch bump) latency, and
// reputation power-walk timing. The zero EngineObs is the disabled
// observer: its nil handles are no-ops and its nil clock leaves every
// span untimed, so call sites use it without checks. The observer
// carries no engine state, so attaching or detaching it cannot perturb
// replay determinism — the clock is only ever read around builds, never
// fed into them.
type EngineObs struct {
	clock obs.Clock

	build   [3]*metrics.Histogram // engine_build_seconds{dim=fm|dm|um}, indexed by dimFM…
	dirty   [3]*metrics.Counter   // engine_dirty_rows_total{dim=fm|dm|um}
	buildRM *metrics.Histogram    // engine_build_seconds{dim="rm"}
	repWalk *metrics.Histogram    // Reputations row-walk latency

	refreeze  *metrics.Histogram // TM integration (WeightedSum) latency
	refreezes *metrics.Counter   // epoch bumps
}

// NewEngineObs registers the engine metric families in reg and returns
// an observer timed by clock. A nil registry returns a nil (disabled)
// observer; a nil clock keeps the counters but disables the latency
// spans, which is what deterministic simulations want.
func NewEngineObs(reg *metrics.Registry, clock obs.Clock) *EngineObs {
	if reg == nil {
		return nil
	}
	o := &EngineObs{
		clock:     clock,
		buildRM:   reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", "rm"),
		repWalk:   reg.Histogram("engine_reputation_walk_seconds", metrics.DurationBuckets),
		refreeze:  reg.Histogram("engine_tm_refreeze_seconds", metrics.DurationBuckets),
		refreezes: reg.Counter("engine_tm_refreeze_total"),
	}
	for d, dim := range [3]string{dimFM: "fm", dimDM: "dm", dimUM: "um"} {
		o.build[d] = reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", dim)
		o.dirty[d] = reg.Counter("engine_dirty_rows_total", "dim", dim)
	}
	return o
}

// SetObserver attaches (or, with nil, detaches) the metrics observer.
// Not safe for concurrent use with builds: the bare engine is
// single-threaded, so attach at construction.
func (e *Engine) SetObserver(o *EngineObs) {
	e.obs = EngineObs{}
	if o != nil {
		e.obs = *o
	}
}

// dirtyCount is the number of rows the next refresh of d will recompute.
func (e *Engine) dirtyCount(d *dimCache) int {
	if d.all || d.rows == nil {
		return e.n
	}
	return len(d.dirty)
}
