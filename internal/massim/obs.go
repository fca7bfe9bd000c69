package massim

import (
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

// Instrumentation follows the sparse-kernel pattern: an atomically
// installed package singleton so uninstrumented runs pay one pointer
// load per run and then touch only the zero simObs's nil, no-op
// handles. Per-scenario series are labelled, not per-instance, so a
// process running many scenarios shares one registry.
type massimObs struct {
	clock obs.Clock
	reg   *metrics.Registry
	epoch *metrics.Histogram // epoch boundary processing time
}

var mobs obs.Slot[massimObs]

// Instrument publishes massim metrics into reg, timed by clock. A nil
// registry (or Uninstrument) turns instrumentation back off.
func Instrument(reg *metrics.Registry, clock obs.Clock) {
	if reg == nil {
		mobs.Store(nil)
		return
	}
	mobs.Store(&massimObs{
		clock: clock,
		reg:   reg,
		epoch: reg.Histogram("massim_epoch_seconds", metrics.DurationBuckets),
	})
}

// Uninstrument disables massim instrumentation.
func Uninstrument() { mobs.Store(nil) }

// simObs is one run's view of the singleton: it caches the per-scenario
// counters so the hot path does no name lookups. The zero simObs is an
// uninstrumented run's.
type simObs struct {
	clock                 obs.Clock
	epochH                *metrics.Histogram
	reqC, denC, fakeC     *metrics.Counter
	praiseC, rejC, epochC *metrics.Counter
	passC, failC          *metrics.Counter
}

// scenarioLabel canonicalises a scenario name into the finite label set
// the metrics registry may see: the built-in scenario library plus
// "custom" for anything registered out-of-tree. Without this bound an
// externally supplied name would mint eight new series per run.
//
//mdrep:labelset
func scenarioLabel(name string) string {
	switch name {
	case "baseline", "collusion-front", "whitewash", "camouflage", "strategic":
		return name
	}
	return "custom"
}

// newSimObs caches one run's counters; scenario must already be
// canonicalised through scenarioLabel.
func newSimObs(scenario string) simObs {
	m := mobs.Load()
	if m.reg == nil {
		return simObs{}
	}
	return simObs{
		clock:   m.clock,
		epochH:  m.epoch,
		reqC:    m.reg.Counter("massim_requests_total", "scenario", scenario),
		denC:    m.reg.Counter("massim_denied_total", "scenario", scenario),
		fakeC:   m.reg.Counter("massim_fake_downloads_total", "scenario", scenario),
		praiseC: m.reg.Counter("massim_praise_ratings_total", "scenario", scenario),
		rejC:    m.reg.Counter("massim_whitewash_rejoins_total", "scenario", scenario),
		epochC:  m.reg.Counter("massim_epochs_total", "scenario", scenario),
		passC:   m.reg.Counter("massim_verdict_pass_total", "scenario", scenario),
		failC:   m.reg.Counter("massim_verdict_fail_total", "scenario", scenario),
	}
}
