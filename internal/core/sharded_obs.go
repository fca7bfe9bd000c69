package core

import (
	"fmt"
	"strconv"

	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

// ShardedObs is the sharded facade's metrics surface: group-commit
// batch and per-shard event counts on the ingest path, rebuild and
// per-shard rebuild latency, and the wait to acquire every shard lock
// (writer contention made visible). The engine families (per-dimension
// builds, TM refreezes) come from the EngineObs attached with
// SetObserver. All series carrying a per-shard dimension use a "shard"
// label so dashboards can spot a hot shard. A disabled observer has nil
// handles and a nil clock, as EngineObs, but one (nil) slot per shard.
type ShardedObs struct {
	clock obs.Clock

	batches  *metrics.Counter     // sharded_ingest_batches_total
	events   []*metrics.Counter   // sharded_ingest_events_total{shard=i}
	rebuild  *metrics.Histogram   // sharded_rebuild_seconds
	perShard []*metrics.Histogram // sharded_shard_rebuild_seconds{shard=i}
	lockWait *metrics.Histogram   // sharded_rebuild_lock_wait_seconds
}

// NewShardedObs registers the sharded metric families for k shards. A
// nil registry returns a nil (disabled) observer; a nil clock keeps the
// counters but disables latency spans.
func NewShardedObs(reg *metrics.Registry, clock obs.Clock, k int) *ShardedObs {
	if reg == nil {
		return nil
	}
	o := &ShardedObs{
		clock:    clock,
		batches:  reg.Counter("sharded_ingest_batches_total"),
		events:   make([]*metrics.Counter, k),
		rebuild:  reg.Histogram("sharded_rebuild_seconds", metrics.DurationBuckets),
		perShard: make([]*metrics.Histogram, k),
		lockWait: reg.Histogram("sharded_rebuild_lock_wait_seconds", metrics.DurationBuckets),
	}
	for i := 0; i < k; i++ {
		o.events[i] = reg.Counter("sharded_ingest_events_total", "shard", shardLabel(i))
		o.perShard[i] = reg.Histogram("sharded_shard_rebuild_seconds", metrics.DurationBuckets, "shard", shardLabel(i))
	}
	return o
}

// SetShardObserver attaches the per-shard metrics observer; nil
// detaches it. The observer must have been built for this facade's
// shard count: its per-shard series are indexed by shard.
func (s *Sharded) SetShardObserver(o *ShardedObs) {
	if o == nil {
		o = &ShardedObs{events: make([]*metrics.Counter, s.k), perShard: make([]*metrics.Histogram, s.k)}
	}
	if len(o.events) != s.k {
		panic(fmt.Sprintf("core: ShardedObs built for %d shard(s) attached to a %d-shard engine", len(o.events), s.k))
	}
	s.sobs = *o
}

// shardLabel returns the canonical metric label for shard index i. The
// set is bounded by construction: NewSharded rejects k > MaxShards
// (256), and anything outside that range collapses to one overflow
// label rather than minting a series per bogus index.
//
//mdrep:labelset
func shardLabel(i int) string {
	if i < 0 || i >= MaxShards {
		return "overflow"
	}
	return strconv.Itoa(i)
}
