package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/journal"
	"mdrep/internal/obs"
)

const (
	// ingestBatch is the closed loop's batch size.
	ingestBatch = 64
	// ingestRate is the open loop's offered load in events/s, about a
	// third of the closed loop's capacity on a 2-CPU host (~45k
	// events/s). At half the capacity, runs in which the hypervisor took
	// 10-27% of the CPU pushed the p50 from 0.33 to 3.2 ms as the group
	// commit queue neared saturation; a third leaves room for such a
	// slowdown.
	ingestRate = 15000
	// closedShare is the share of the run given to the closed loop; the
	// open loop gets the rest.
	closedShare = 0.3
	// recoveries is how many times the crashed directory is recovered,
	// each from its own identical copy.
	recoveries = 5
)

// openJournal opens a sharded journal in dir, attaching log observers
// when the run is traced.
func openJournal(env *runEnv, dir string) (*journal.ShardedEngine, []journal.RecoveryInfo, error) {
	var obsFn journal.ShardObsFunc
	if env.traced() {
		obsFn = func(si int) *journal.LogObs {
			return journal.NewLogObs(env.reg, obs.WallClock, "shard", fmt.Sprint(si))
		}
	}
	return journal.OpenSharded(dir, peers, shards, core.DefaultConfig(), journal.DefaultConfig(), obsFn)
}

type ingestSetup struct {
	g   *generator
	eng *journal.ShardedEngine
	dir string
}

// runIngest is the durable write path: trace events through
// journal.ShardedEngine.ApplyBatch, acknowledged once it returns (after
// fsync). It does no TM build and no DHT work. The open loop runs first,
// on the journal the set-up opened, so its fixed event count fixes the
// state the crash leaves behind and the peak RSS read after it; the
// closed loop then runs on a second, fresh journal.
func runIngest(env *runEnv) (*result, error) {
	res := &result{e2e: map[string]float64{}, layers: map[string]float64{}}
	setups := 0
	st, setupS, err := timeSetup(setupReps, func() (ingestSetup, error) {
		setups++
		g, err := newGenerator(env.seed)
		if err != nil {
			return ingestSetup{}, err
		}
		dir := filepath.Join(env.dir, fmt.Sprintf("open-%d", setups))
		eng, _, err := openJournal(env, dir)
		return ingestSetup{g, eng, dir}, err
	}, func(s ingestSetup) { _ = s.eng.Close() })
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS
	res.say("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setupReps))
	stream := st.g.ingestStream()
	rpcs0 := rpcsSent.Load()
	var (
		req                 uint64
		allocKBs, fsyncsAll float64
	)
	// measure runs one timed loop, adding its allocations and fsyncs to
	// the per-layer totals.
	measure := func(loop func()) {
		a, f := allocKB(), fsyncs(env)
		loop()
		allocKBs += allocKB() - a
		fsyncsAll += fsyncs(env) - f
	}

	// Open loop at ingestRate: one commit loop group-commits every event
	// that is due.
	eng := st.eng
	total := int(ingestRate * env.seconds * (1 - closedShare))
	interval := time.Second / ingestRate
	var lat, lag latencies
	acked, commits := 0, 0
	var openS float64
	measure(func() {
		start := time.Now()
		due := func(k int) time.Time { return start.Add(time.Duration(k) * interval) }
		for k := 0; k < total; {
			if time.Now().Before(due(k)) {
				waitUntil(due(k))
				lag.add(time.Since(due(k)))
			}
			j := min(total, int(time.Since(start)/interval)+1)
			evs := make([]core.Event, j-k)
			for e := range evs {
				evs[e] = stream(k + e)
			}
			req++
			opStart := env.rec.now() - int64(time.Since(due(k)))
			t := env.rec.now()
			err := eng.ApplyBatch(evs)
			env.rec.add("journal.apply_batch", depthRow, req, t)
			env.rec.add("op.open_commit", depthOp, req, opStart)
			ack := time.Now()
			res.attempted += len(evs)
			for e := k; e < j; e++ {
				if err != nil {
					lat = append(lat, failedLatency)
				} else {
					lat.add(ack.Sub(due(e)))
				}
			}
			if err != nil {
				res.failed += len(evs)
			} else {
				acked += len(evs)
			}
			k = j
			commits++
		}
		openS = time.Since(start).Seconds()
	})
	res.e2e["peak_rss_mb"] = peakRSSMB()
	if err := checkBacklog(openS, float64(total)/ingestRate); err != nil {
		return nil, err
	}
	s, err := lat.summarize(0.99)
	if err != nil {
		return nil, err
	}
	res.e2e["tail_ms"] = s.tail
	res.say("ingest_p50_ms", s.p50, "ms", fmt.Sprintf("open loop %d events/s, %d events in %d commits", ingestRate, total, commits))
	res.say(pctName("ingest", s.tailLevel), s.tail, "ms", tailNote(s, "events"))
	sayLag(res, lag)
	if ep := eng.Core().Epoch(); ep != 0 {
		return nil, fmt.Errorf("self-check: ingest built the TM %d times", ep)
	}

	// Crash: the engine is abandoned without Close, so no final snapshot
	// is taken. Its directory stays as it was left for the recoveries.
	pre := eng.Core().ExportState()
	eng, st.eng = nil, nil

	// Closed loop: one producer, fixed 64-event batches.
	closed, _, err := openJournal(env, filepath.Join(env.dir, "closed"))
	if err != nil {
		return nil, err
	}
	var (
		closedS float64
		blat    latencies
	)
	closedEvents := 0
	measure(func() {
		batch := make([]core.Event, ingestBatch)
		closedFor := time.Duration(env.seconds * closedShare * float64(time.Second))
		start := time.Now()
		for time.Since(start) < closedFor {
			for k := range batch {
				batch[k] = stream(closedEvents + k)
			}
			req++
			t, t0 := env.rec.now(), time.Now()
			err := closed.ApplyBatch(batch)
			d := time.Since(t0)
			env.rec.add("journal.apply_batch", depthRow, req, t)
			env.rec.add("op.closed_batch", depthOp, req, t)
			res.attempted += len(batch)
			if err != nil {
				res.failed += len(batch)
				blat = append(blat, failedLatency)
			} else {
				closedEvents += len(batch)
				blat.add(d)
			}
		}
		closedS = time.Since(start).Seconds()
	})
	if err := closed.Close(); err != nil {
		return nil, err
	}
	eps := float64(closedEvents) / closedS
	res.e2e["throughput_per_s"] = eps
	res.say("ingest_eps", eps, "1/s", fmt.Sprintf("closed loop, %d-event batches, %.1f s", ingestBatch, closedS))
	bs, err := blat.summarize(0.99)
	if err != nil {
		return nil, err
	}
	res.e2e["p50_ms"] = bs.p50
	res.say("ingest_batch_p50_ms", bs.p50, "ms", fmt.Sprintf("closed loop, %d batches; p50_ms of the result line", bs.n))
	if n := rpcsSent.Load() - rpcs0; n != 0 {
		return nil, fmt.Errorf("self-check: ingest sent %d DHT RPCs", n)
	}

	// Recoveries, each from its own copy of the crashed directory.
	var (
		recS      []float64
		replayed  uint64
		shardSeqs []uint64
	)
	for r := 0; r < recoveries; r++ {
		dir := filepath.Join(env.dir, fmt.Sprintf("recover-%d", r))
		if err := copyDir(st.dir, dir); err != nil {
			return nil, err
		}
		t := time.Now()
		got, infos, err := openJournal(env, dir)
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", r, err)
		}
		recS = append(recS, time.Since(t).Seconds())
		var seen uint64
		shardSeqs = shardSeqs[:0]
		for _, in := range infos {
			seen += in.SnapshotSeq + in.Replayed
			replayed += in.Replayed
			shardSeqs = append(shardSeqs, in.SnapshotSeq+in.Replayed)
		}
		if seen != uint64(acked) {
			return nil, fmt.Errorf("gate: recovery %d restored %d events, %d were acknowledged", r, seen, acked)
		}
		if r == 0 && !reflect.DeepEqual(got.Core().ExportState(), pre) {
			return nil, fmt.Errorf("gate: recovered state differs from the state before the crash")
		}
		if err := got.Close(); err != nil {
			return nil, err
		}
	}
	recoverS := median(recS)
	res.e2e["side_ms"] = recoverS * 1000
	res.say("recover_s", recoverS, "s", fmt.Sprintf("median of %d recoveries of %d events", recoveries, acked))

	if env.traced() {
		walBytes, walEvents, snapBytes, err := journalFootprint(st.dir, shardSeqs)
		if err != nil {
			return nil, err
		}
		t := finishTrace(env, res)
		applies := float64(t.spans["journal.apply_batch"])
		res.layers["journal.apply_batch_us"] = float64(t.total["journal.apply_batch"]) / 1e3 / applies
		res.layers["journal.events_per_batch"] = float64(res.attempted) / applies
		res.layers["journal.fsyncs_per_kevent"] = fsyncsAll / float64(res.attempted) * 1000
		res.layers["journal.wal_bytes_per_event"] = float64(walBytes) / float64(walEvents)
		res.layers["journal.snapshot_bytes"] = float64(snapBytes)
		res.layers["journal.recover_replayed"] = float64(replayed) / recoveries
		res.layers["go.alloc_kb_per_op"] = allocKBs / float64(res.attempted)
	}
	return res, nil
}

// fsyncs is the journal observers' fsync count so far (0 untraced).
func fsyncs(env *runEnv) float64 {
	if !env.traced() {
		return 0
	}
	return regSum(env.reg, "journal_fsync_total")
}

// failedLatency stands for a failed or refused operation, which misses
// every latency limit.
const failedLatency = 1e300

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			_ = out.Close()
			return err
		}
		return out.Close()
	})
}

// journalFootprint measures a journal directory from outside: the bytes
// of its live WAL segments and the events they hold (shard sequence
// minus the oldest live segment's start), and the bytes of the newest
// snapshot of every shard. seqs holds each shard's event count.
func journalFootprint(dir string, seqs []uint64) (walBytes, walEvents, snapBytes int64, err error) {
	for si, seq := range seqs {
		entries, err := os.ReadDir(filepath.Join(dir, fmt.Sprintf("shard-%02d", si)))
		if err != nil {
			return 0, 0, 0, err
		}
		oldest := seq
		var newestSnap int64
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				return 0, 0, 0, err
			}
			name := e.Name()
			switch {
			case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
				startSeq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
				if err != nil {
					return 0, 0, 0, fmt.Errorf("wal segment %s: %w", name, err)
				}
				oldest = min(oldest, startSeq)
				walBytes += info.Size() - walHeader
			case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
				newestSnap = info.Size() // ReadDir sorts by name, and names sort by sequence
			}
		}
		walEvents += int64(seq - oldest)
		snapBytes += newestSnap
	}
	return walBytes, walEvents, snapBytes, nil
}

// walHeader is the fixed header of a WAL segment (magic and start
// sequence), which no event pays for.
const walHeader = 16
