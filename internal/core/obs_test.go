package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mdrep/internal/metrics"
)

func TestEngineObserverCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	now := time.Unix(0, 0)
	o := NewEngineObs(reg, func() time.Time {
		now = now.Add(time.Microsecond)
		return now
	})
	eng, err := NewEngine(4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetObserver(o)

	if err := eng.Vote(0, "f1", 0.9, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Vote(1, "f1", 0.8, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.RecordDownload(0, 1, "f1", 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.RateUser(0, 1, 0.7); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BuildTM(0); err != nil {
		t.Fatal(err)
	}

	// First build recomputes all n rows of each dimension.
	for _, dim := range []string{"fm", "dm", "um"} {
		if got := reg.Counter("engine_dirty_rows_total", "dim", dim).Load(); got != 4 {
			t.Errorf("dirty rows %s = %d, want 4", dim, got)
		}
		if got := reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", dim).Count(); got != 1 {
			t.Errorf("build spans %s = %d, want 1", dim, got)
		}
	}
	if got := reg.Counter("engine_tm_refreeze_total").Load(); got != eng.Epoch() {
		t.Errorf("refreeze count %d != epoch %d", got, eng.Epoch())
	}

	// An incremental patch recomputes only the dirtied rows.
	if err := eng.RateUser(2, 3, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BuildTM(0); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("engine_dirty_rows_total", "dim", "um").Load(); got != 5 {
		t.Errorf("um dirty rows after patch = %d, want 4+1", got)
	}

	if _, err := eng.Reputations(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("engine_reputation_walk_seconds", metrics.DurationBuckets).Count(); got != 1 {
		t.Errorf("reputation walk spans = %d, want 1", got)
	}
	if _, err := eng.BuildRM(0); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", "rm").Count(); got != 1 {
		t.Errorf("rm build spans = %d, want 1", got)
	}
}

// TestShardedObserverMatchesEngine pins that the sharded facade feeds
// the engine metric families: for every K the rows recomputed per
// dimension and the refreeze count equal the bare engine's, and at K = 1
// the build spans match one for one.
func TestShardedObserverMatchesEngine(t *testing.T) {
	const n = 12
	evs := scriptEvents(n, 3, 7)
	counts := func(reg *metrics.Registry) [7]uint64 {
		var c [7]uint64
		for d, dim := range []string{"fm", "dm", "um"} {
			c[d] = reg.Counter("engine_dirty_rows_total", "dim", dim).Load()
			c[3+d] = reg.Histogram("engine_build_seconds", metrics.DurationBuckets, "dim", dim).Count()
		}
		c[6] = reg.Counter("engine_tm_refreeze_total").Load()
		return c
	}
	tick := func() func() time.Time {
		var ns atomic.Int64
		return func() time.Time { return time.Unix(0, ns.Add(1000)) }
	}

	wantReg := metrics.NewRegistry()
	eng := mustEngine(t, n, DefaultConfig())
	eng.SetObserver(NewEngineObs(wantReg, tick()))
	for k, ev := range evs {
		if err := eng.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
		if k%50 == 0 {
			if _, err := eng.BuildTM(ev.Time); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := counts(wantReg)

	for _, k := range []int{1, 3} {
		reg := metrics.NewRegistry()
		s, err := NewSharded(n, k, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.SetObserver(NewEngineObs(reg, tick()))
		for i, ev := range evs {
			if err := s.ApplyEvent(ev); err != nil {
				t.Fatal(err)
			}
			if i%50 == 0 {
				if _, err := s.TM(ev.Time); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := counts(reg)
		if got[6] != s.Epoch() {
			t.Errorf("k=%d: refreeze count %d != epoch %d", k, got[6], s.Epoch())
		}
		for d, dim := range []string{"fm", "dm", "um"} {
			if got[d] != want[d] {
				t.Errorf("k=%d: %s dirty rows = %d, engine recomputed %d", k, dim, got[d], want[d])
			}
			if k == 1 && got[3+d] != want[3+d] {
				t.Errorf("k=1: %s build spans = %d, engine recorded %d", dim, got[3+d], want[3+d])
			}
		}
		if got[6] != want[6] {
			t.Errorf("k=%d: refreezes = %d, engine counted %d", k, got[6], want[6])
		}
	}
}

// A ShardedObs carries one per-shard series per shard it was built for;
// attaching one built for another shard count must fail at attach time,
// naming both counts, instead of indexing out of range inside a shard
// worker on the first batch.
func TestSetShardObserverRejectsMismatchedK(t *testing.T) {
	s, err := NewSharded(8, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			want := "core: ShardedObs built for 1 shard(s) attached to a 4-shard engine"
			if r := recover(); fmt.Sprint(r) != want {
				t.Errorf("panic = %v, want %q", r, want)
			}
		}()
		s.SetShardObserver(NewShardedObs(metrics.NewRegistry(), nil, 1))
	}()
	reg := metrics.NewRegistry()
	s.SetShardObserver(NewShardedObs(reg, nil, 4))
	evs := make([]Event, 8)
	for p := range evs {
		evs[p] = Event{Kind: EventVote, I: p, File: "f", Value: 0.5}
	}
	if err := s.ApplyBatch(evs); err != nil {
		t.Fatal(err)
	}
	var events uint64
	for si := 0; si < 4; si++ {
		events += reg.Counter("sharded_ingest_events_total", "shard", shardLabel(si)).Load()
	}
	if events != 8 {
		t.Errorf("sharded_ingest_events_total sums to %d, want 8", events)
	}
	s.SetShardObserver(nil) // detaching is always allowed
	if err := s.ApplyBatch(evs); err != nil {
		t.Fatal(err)
	}
}
