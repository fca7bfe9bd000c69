package journal

import (
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

// LogObs is the journal's metrics surface: append latency (including
// the batched fsync when one lands on the call), fsync count, snapshot
// size and count, and Open-time recovery cost. Threaded in through
// Config.Obs so the instrumentation is chosen by whoever opens the log;
// Open replaces a nil observer with the zero LogObs, whose nil handles
// are no-ops and whose nil clock leaves spans untimed.
type LogObs struct {
	clock     obs.Clock
	appendLat *metrics.Histogram // journal_append_seconds
	appends   *metrics.Counter   // journal_append_total
	fsyncs    *metrics.Counter   // journal_fsync_total
	snapBytes *metrics.Histogram // journal_snapshot_bytes
	snapshots *metrics.Counter   // journal_snapshot_total
	recovery  *metrics.Histogram // journal_recovery_seconds
	replayed  *metrics.Counter   // journal_replayed_events_total
}

// NewLogObs registers the journal metric families in reg, timed by
// clock. A nil registry returns a nil (disabled) observer; a nil clock
// keeps the counters and sizes but disables latency spans. Optional
// trailing label pairs are attached to every series — the sharded
// journal passes ("shard", "<i>") so each shard segment's appends,
// fsyncs and recovery cost are separately visible.
func NewLogObs(reg *metrics.Registry, clock obs.Clock, labels ...string) *LogObs {
	if reg == nil {
		return nil
	}
	return &LogObs{
		clock:     clock,
		appendLat: reg.Histogram("journal_append_seconds", metrics.DurationBuckets, labels...),
		appends:   reg.Counter("journal_append_total", labels...),
		fsyncs:    reg.Counter("journal_fsync_total", labels...),
		snapBytes: reg.Histogram("journal_snapshot_bytes", metrics.SizeBuckets, labels...),
		snapshots: reg.Counter("journal_snapshot_total", labels...),
		recovery:  reg.Histogram("journal_recovery_seconds", metrics.DurationBuckets, labels...),
		replayed:  reg.Counter("journal_replayed_events_total", labels...),
	}
}
