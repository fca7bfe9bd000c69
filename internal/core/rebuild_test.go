package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/sim"
	"mdrep/internal/sparse"
)

// mustMatchRefBits fails unless got holds exactly ref's entries with
// bit-identical values.
func mustMatchRefBits(t *testing.T, label string, ref *sparse.Matrix, got *sparse.CSR) {
	t.Helper()
	want, have := ref.Entries(), got.Entries()
	if len(want) != len(have) {
		t.Fatalf("%s: %d entries, want %d", label, len(have), len(want))
	}
	for k := range want {
		w, h := want[k], have[k]
		if w.Row != h.Row || w.Col != h.Col || math.Float64bits(w.Val) != math.Float64bits(h.Val) {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, k, h, w)
		}
	}
}

// TestShardedRebuildMatchesReference checks every incremental sharded TM
// against the map-backed from-scratch reference buildTMRef, which shares
// no row or freeze code with the rebuild. The run crosses window expiry,
// builds at earlier times, compaction, the evaluator cap, mixed
// per-event and batched ingest, and a mid-run shard restore from an
// older snapshot.
func TestShardedRebuildMatchesReference(t *testing.T) {
	const n = 16
	configs := []struct {
		window  time.Duration
		maxEval int
	}{
		{40 * time.Minute, 4},
		{40 * time.Minute, 0},
		{0, 3},
	}
	for _, k := range []int{1, 2, 8} {
		for c, conf := range configs {
			name := fmt.Sprintf("k=%d/config=%d", k, c)
			cfg := DefaultConfig()
			cfg.Window = conf.window
			cfg.MaxEvaluatorsPerFile = conf.maxEval
			s, err := NewSharded(n, k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := sim.NewRNG(uint64(1000*k + c))
			check := func(at time.Duration, label string) {
				t.Helper()
				tm, err := s.TM(at)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := s.eng.buildTMRef(at)
				if err != nil {
					t.Fatal(err)
				}
				mustMatchRefBits(t, name+"/"+label, ref, tm)
			}
			var snap *ShardState
			var batch []Event
			now := time.Duration(0)
			for step := 0; step < 360; step++ {
				now += time.Duration(r.Intn(6)) * time.Minute
				ev, ok := randomEvent(r, n, now)
				if ok {
					if step%3 == 0 {
						batch = append(batch, ev)
					} else if err := s.ApplyEvent(ev); err != nil {
						t.Fatal(err)
					}
				}
				if len(batch) >= 5 {
					if err := s.ApplyBatch(batch); err != nil {
						t.Fatal(err)
					}
					batch = batch[:0]
				}
				switch {
				case step == 120:
					si := step % k
					if snap, err = s.ExportShardState(si); err != nil {
						t.Fatal(err)
					}
				case step == 240:
					if err := s.RestoreShard(snap.Shard, snap); err != nil {
						t.Fatal(err)
					}
					check(now, fmt.Sprintf("restore step %d", step))
				case step%90 == 45:
					s.Compact(now)
					check(now, fmt.Sprintf("compact step %d", step))
				case step%50 == 25:
					check(now, fmt.Sprintf("step %d", step))
					check(now-30*time.Minute, fmt.Sprintf("rewind step %d", step))
				case step%7 == 0:
					check(now, fmt.Sprintf("step %d", step))
				}
			}
			if err := s.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			check(now+time.Hour, "post")
			check(now+48*time.Hour, "drained")
		}
	}
}

// randomEvent draws one valid non-compaction event over 6 files, few
// enough that peer pairs share several and FM sums have several terms;
// ok is false when the draw names a self-edge.
func randomEvent(r *sim.RNG, n int, now time.Duration) (Event, bool) {
	i, j := r.Intn(n), r.Intn(n)
	f := eval.FileID(fmt.Sprintf("f%d", r.Intn(6)))
	switch r.Intn(6) {
	case 0, 1:
		return Event{Kind: EventVote, I: i, File: f, Value: r.Float64(), Time: now}, true
	case 2:
		return Event{Kind: EventSetImplicit, I: i, File: f, Value: r.Float64(), Time: now}, true
	case 3:
		return Event{Kind: EventDownload, I: i, J: j, File: f, Size: int64(r.Intn(1<<20) + 1), Time: now}, i != j
	case 4:
		return Event{Kind: EventRateUser, I: i, J: j, Value: r.Float64()}, i != j
	default:
		return Event{Kind: EventBlacklist, I: i, J: j}, i != j && r.Intn(4) == 0
	}
}

// TestRebuildAllocsTrackDirtyRows is the deterministic work gate of the
// patch-only rebuild: a rebuild after one SetImplicit that dirties a
// fixed set of rows must allocate the same number of times whether the
// population is 500 or 4000 peers. Every peer has a non-empty row in
// every dimension, so a rebuild that touches clean rows one allocation
// at a time fails.
func TestRebuildAllocsTrackDirtyRows(t *testing.T) {
	allocs := func(n int) float64 {
		s, err := NewSharded(n, 1, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var evs []Event
		for p := 0; p < n; p++ {
			q := p ^ 1
			pair := eval.FileID(fmt.Sprintf("pair-%d", p/2))
			evs = append(evs,
				Event{Kind: EventVote, I: p, File: pair, Value: 0.8},
				Event{Kind: EventDownload, I: p, J: q, File: pair, Size: 1 << 20},
				Event{Kind: EventRateUser, I: p, J: q, Value: 0.7},
			)
		}
		// The hot file ties the first 40 peers together: a write to it
		// dirties those 40 FM rows and the writer's DM row.
		for p := 0; p < 40; p++ {
			evs = append(evs, Event{Kind: EventVote, I: p, File: "hot", Value: 0.5 + 0.01*float64(p)})
		}
		if err := s.ApplyBatch(evs); err != nil {
			t.Fatal(err)
		}
		now := time.Hour
		if _, err := s.TM(now); err != nil {
			t.Fatal(err)
		}
		v := 0.0
		return testing.AllocsPerRun(20, func() {
			v = 1 - v
			if err := s.SetImplicit(7, "hot", v, now); err != nil {
				t.Fatal(err)
			}
			if _, err := s.TM(now); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(4000)
	t.Logf("rebuild allocs: n=500 %.0f, n=4000 %.0f", small, large)
	if large > small+8 {
		t.Fatalf("rebuild allocations grow with the population: %.0f at n=500, %.0f at n=4000", small, large)
	}
}
