package core

import (
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

// EngineObs is the engine's metrics surface: per-dimension build
// latency and dirty-row volume, TM re-freeze (epoch bump) latency, and
// reputation power-walk timing. An engine with a nil observer pays one
// nil check per build call. The observer carries no engine state, so
// attaching or detaching it cannot perturb replay determinism — the
// clock is only ever read around builds, never fed into them.
type EngineObs struct {
	tracer *obs.Tracer

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
		tracer:    obs.NewTracer(clock),
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

// spanBuild counts rows recomputed rows of dimension d and opens its
// build span; nil-safe. The sharded engine calls it once per shard that
// recomputes d, so at K = 1 the samples match the bare engine's.
func (o *EngineObs) spanBuild(d int, rows int) obs.Span {
	if o == nil {
		return obs.Span{}
	}
	o.dirty[d].Add(uint64(rows))
	return o.tracer.Start(o.build[d])
}

// spanRefreeze opens a TM integration span; nil-safe.
func (o *EngineObs) spanRefreeze() obs.Span {
	if o == nil {
		return obs.Span{}
	}
	return o.tracer.Start(o.refreeze)
}

// countRefreeze records one epoch bump; nil-safe.
func (o *EngineObs) countRefreeze() {
	if o != nil {
		o.refreezes.Inc()
	}
}

// spanRepWalk starts a reputation-walk span; nil-safe so lock-free query
// paths can call it unconditionally.
func (o *EngineObs) spanRepWalk() obs.Span {
	if o == nil {
		return obs.Span{}
	}
	return o.tracer.Start(o.repWalk)
}

// SetObserver attaches (or, with nil, detaches) the metrics observer.
// Not safe for concurrent use with builds: the bare engine is
// single-threaded, so attach at construction.
func (e *Engine) SetObserver(o *EngineObs) { e.obs = o }

// dirtyCount is the number of rows the next refresh of d will recompute.
func (e *Engine) dirtyCount(d *dimCache) int {
	if d.all || d.rows == nil {
		return e.n
	}
	return len(d.dirty)
}
