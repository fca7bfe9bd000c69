package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/journal"
	"mdrep/internal/obs"
	"mdrep/internal/sparse"
)

const (
	// judgeRate is the judge requests offered per second.
	judgeRate = 100
	// writeBatch is the size of the background write batch that arrives
	// once a second beside the judges.
	writeBatch = 16
	// loadBatch is the batch size the engine is loaded with in set-up.
	loadBatch = 512
	// oracleStates and oraclePerState size the verdict sample replayed on
	// an unsharded core.Engine: a few engine states (each costs the
	// oracle a rebuild), several verdicts in each.
	oracleStates   = 3
	oraclePerState = 4
)

// loadEngine opens a journal in dir and loads the judge prefix of the
// trace through it, then builds the TM once, so that timed judges find
// the steady state: a cached TM, rebuilt incrementally after writes.
func loadEngine(env *runEnv, g *generator, dir string) (*journal.ShardedEngine, error) {
	eng, _, err := openJournal(env, dir)
	if err != nil {
		return nil, err
	}
	load := g.judgeLoad()
	for k := 0; k < len(load); k += loadBatch {
		if err := eng.ApplyBatch(load[k:min(k+loadBatch, len(load))]); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	if _, err := eng.Core().TM(load[len(load)-1].Time); err != nil {
		return nil, err
	}
	return eng, nil
}

type judgeSetup struct {
	g   *generator
	eng *journal.ShardedEngine
}

// judgeRun is one judge request's outcome.
type judgeRun struct {
	req   int
	state int // write batches acknowledged when it started
	// quiet reports that no write batch was in flight at any point of
	// the judge, so the engine state it read is exactly state batches in.
	quiet          bool
	epoch, epochAt uint64
	j              core.Judgement
	err            error
}

// runJudge is the read-mostly path: open-loop judgements on a loaded
// engine, with one journaled write batch a second beside them, so most
// judges read the cached TM and the first after each write pays the
// stop-the-world incremental rebuild.
func runJudge(env *runEnv) (*result, error) {
	res := &result{e2e: map[string]float64{}, layers: map[string]float64{}}
	setups := 0
	st, setupS, err := timeSetup(setupReps, func() (judgeSetup, error) {
		setups++
		g, err := newGenerator(env.seed)
		if err != nil {
			return judgeSetup{}, err
		}
		eng, err := loadEngine(env, g, filepath.Join(env.dir, fmt.Sprintf("judge-%d", setups)))
		return judgeSetup{g, eng}, err
	}, func(s judgeSetup) { _ = s.eng.Close() })
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS
	res.say("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups (load %d events, first TM build)", setupReps, len(st.g.judgeLoad())))

	g, eng := st.g, st.eng
	defer eng.Close()
	s := eng.Core()
	total := int(judgeRate * env.seconds)
	reqs := g.judgeRequests(total)
	writes := g.writeBatches(int(env.seconds), writeBatch)
	// nowAt[b] is the trace's virtual time once b write batches are in.
	nowAt := make([]time.Duration, len(writes)+1)
	nowAt[0] = g.judgeLoad()[len(g.judgeLoad())-1].Time
	for b, w := range writes {
		nowAt[b+1] = w[len(w)-1].Time
	}
	if env.traced() {
		s.SetShardObserver(core.NewShardedObs(env.reg, obs.WallClock, shards))
	}
	fsync0 := fsyncs(env)
	alloc0 := allocKB()

	var (
		begun    atomic.Int64 // write batches handed to ApplyBatch
		acked    atomic.Int64 // write batches ApplyBatch returned
		wlat     latencies
		werr     error
		writerWG sync.WaitGroup
	)
	start := time.Now()
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for b, w := range writes {
			due := start.Add(time.Duration(b)*time.Second + time.Second/2)
			waitUntil(due)
			req := uint64(total + b + 1)
			opStart := env.rec.now() - int64(time.Since(due))
			t := env.rec.now()
			begun.Add(1)
			err := eng.ApplyBatch(w)
			env.rec.add("journal.apply_batch", depthRow, req, t)
			env.rec.add("op.write", depthOp, req, opStart)
			if err != nil {
				// The engine state is unknown after a failed batch, so
				// the verdict oracle could not follow: stop writing.
				werr = fmt.Errorf("write batch %d: %w", b, err)
				return
			}
			d := time.Since(due)
			for range w {
				wlat.add(d)
			}
			acked.Add(1)
		}
	}()

	runs := make([]judgeRun, 0, total)
	// cached holds the latency of judges that started on time and found
	// the TM cached: the read path alone, without the rebuild stalls the
	// tail measures.
	var lat, lag, cached, rebuilding latencies
	var tm *sparse.CSR
	var rebuildNNZ float64
	for k, r := range reqs {
		due := start.Add(time.Duration(k) * time.Second / judgeRate)
		if time.Now().Before(due) {
			waitUntil(due)
			lag.add(time.Since(due))
		}
		onTime := time.Since(due) < time.Millisecond
		run := judgeRun{req: k, state: int(acked.Load()), epoch: s.Epoch()}
		idle := begun.Load() == int64(run.state)
		now := nowAt[run.state]
		opStart := env.rec.now() - int64(time.Since(due))
		req := uint64(k + 1)
		if env.traced() {
			t := env.rec.now()
			owners := s.CollectOwnerEvaluations(r.file, r.owners, now)
			env.rec.add("core.collect", depthRow, req, t)
			t = env.rec.now()
			var err error
			tm, err = s.TM(now)
			name := "core.tm_hit"
			if err == nil && s.Epoch() != run.epoch {
				name = "core.tm_rebuild"
				rebuildNNZ += float64(tm.NNZ())
			}
			env.rec.add(name, depthRow, req, t)
			if err == nil {
				t = env.rec.now()
				run.j, err = s.JudgeFileFromTM(tm, r.requester, owners)
				env.rec.add("core.judge", depthRow, req, t)
			}
			run.err = err
		} else {
			owners := s.CollectOwnerEvaluations(r.file, r.owners, now)
			run.j, run.err = s.JudgeFile(r.requester, owners, now)
		}
		env.rec.add("op.judge", depthOp, req, opStart)
		d := time.Since(due)
		run.epochAt = s.Epoch()
		if run.err != nil {
			lat = append(lat, failedLatency)
			res.failed++
		} else {
			lat.add(d)
			switch {
			case run.epochAt != run.epoch:
				rebuilding.add(d)
			case onTime:
				cached.add(d)
			}
		}
		run.quiet = idle && acked.Load() == int64(run.state) && begun.Load() == int64(run.state)
		runs = append(runs, run)
	}
	judgedS := time.Since(start).Seconds()
	writerWG.Wait()
	allocEnd := allocKB()
	res.e2e["peak_rss_mb"] = peakRSSMB()
	if werr != nil {
		return nil, werr
	}
	res.attempted = total + len(writes)*writeBatch

	if err := checkBacklog(judgedS, float64(total)/judgeRate); err != nil {
		return nil, err
	}
	delivered := float64(total) / judgedS
	js, err := lat.summarize(0.99)
	if err != nil {
		return nil, err
	}
	ws, err := wlat.summarize(0.99)
	if err != nil {
		return nil, err
	}
	res.e2e["throughput_per_s"] = delivered
	cs, err := cached.summarize(0.99)
	if err != nil {
		return nil, err
	}
	// tail_ms is the p95: one hiccup (a stall twice the usual, seen in
	// two of ten runs) sets a 20-s run's p99 on its own, while the p95 sums
	// over every rebuild stall of the run.
	j95, err := lat.summarize(0.95)
	if err != nil {
		return nil, err
	}
	res.e2e["p50_ms"], res.e2e["tail_ms"] = cs.p50, j95.tail
	// side_ms is what a write costs the readers: the median latency of
	// the judges that rebuilt the TM. The writes' own p50 prints but is
	// one fsync-bound commit over only ~20 samples (quartile spread up to
	// 44% of its median over 10 seeds).
	res.e2e["side_ms"] = median(rebuilding)
	res.say("judge_rate", delivered, "1/s", fmt.Sprintf("delivered; %d/s offered", judgeRate))
	res.say("judge_p50_ms", js.p50, "ms", "")
	res.say("judge_cached_p50_ms", cs.p50, "ms", fmt.Sprintf("%d judges that started on time and found the TM cached; p50_ms of the result line", cs.n))
	res.say("judge_rebuild_p50_ms", median(rebuilding), "ms", fmt.Sprintf("%d judges that rebuilt the TM; side_ms of the result line", len(rebuilding)))
	res.say(pctName("judge", js.tailLevel), js.tail, "ms", tailNote(js, "judges"))
	res.say(pctName("judge", j95.tailLevel), j95.tail, "ms", "tail_ms of the result line")
	res.say("ingest_p50_ms", ws.p50, "ms", fmt.Sprintf("background writes: %d batches of %d events, 1/s", len(writes), writeBatch))
	res.say(pctName("ingest", ws.tailLevel), ws.tail, "ms", tailNote(ws, "events"))
	sayLag(res, lag)

	rebuilt, err := checkRebuilds(runs)
	if err != nil {
		return nil, err
	}
	if err := judgeOracle(g, reqs, writes, nowAt, runs); err != nil {
		return nil, err
	}

	if env.traced() {
		t := finishTrace(env, res)
		mean := func(name string, unit float64) float64 {
			return float64(t.total[name]) / unit / float64(max(t.spans[name], 1))
		}
		rebuilds := float64(t.spans["core.tm_rebuild"])
		res.layers["core.collect_us"] = mean("core.collect", 1e3)
		res.layers["core.tm_hit_us"] = mean("core.tm_hit", 1e3)
		res.layers["core.judge_us"] = mean("core.judge", 1e3)
		res.layers["core.tm_rebuild_ms"] = mean("core.tm_rebuild", 1e6)
		res.layers["core.tm_rebuilds"] = rebuilds / float64(total) * 1000
		res.layers["core.lock_wait_ms"] = regSum(env.reg, "sharded_rebuild_lock_wait_seconds") * 1e3 / max(regCount(env.reg, "sharded_rebuild_lock_wait_seconds"), 1)
		res.layers["sparse.tm_nnz"] = float64(tm.NNZ())
		res.layers["sparse.nnz_per_rebuild"] = rebuildNNZ / max(rebuilds, 1)
		res.layers["journal.apply_batch_us"] = mean("journal.apply_batch", 1e3)
		res.layers["journal.events_per_batch"] = writeBatch
		res.layers["journal.fsyncs_per_kevent"] = (fsyncs(env) - fsync0) / float64(len(writes)*writeBatch) * 1000
		res.layers["go.alloc_kb_per_op"] = (allocEnd - alloc0) / float64(total)
	}
	res.say("judges_rebuilt", float64(rebuilt), "count", fmt.Sprintf("of %d judges; the rest read the cached TM", total))
	return res, nil
}

// checkRebuilds asserts the workload measured what it claims: both
// cached and rebuilt judges, and at least one TM rebuild for every write
// batch that a judge followed (a judge started after it was
// acknowledged). It returns how many judges rebuilt the TM.
func checkRebuilds(runs []judgeRun) (int, error) {
	rebuilt, followed := 0, 0
	for _, r := range runs {
		if r.epochAt != r.epoch {
			rebuilt++
		}
		followed = max(followed, r.state)
	}
	if rebuilt == 0 || rebuilt == len(runs) {
		return 0, fmt.Errorf("self-check: %d of %d judges rebuilt the TM; want both cached and rebuilt judges", rebuilt, len(runs))
	}
	if advanced := runs[len(runs)-1].epochAt - runs[0].epoch; advanced < uint64(followed) {
		return 0, fmt.Errorf("self-check: %d write batches preceded a judge but the TM was rebuilt %d times", followed, advanced)
	}
	return rebuilt, nil
}

// judgeOracle replays the acknowledged events on an unsharded
// core.Engine and requires a seeded sample of the run's verdicts to
// match it bit for bit (the K-invariance contract). Only judges no
// write overlapped are eligible: their engine state is known exactly.
func judgeOracle(g *generator, reqs []judgeReq, writes [][]core.Event, nowAt []time.Duration, runs []judgeRun) error {
	byState := map[int][]judgeRun{}
	for _, r := range runs {
		if r.quiet && r.err == nil {
			byState[r.state] = append(byState[r.state], r)
		}
	}
	states := make([]int, 0, len(byState))
	for st := range byState {
		states = append(states, st)
	}
	sort.Ints(states)
	rng := g.rng.DeriveStream("e2ebench/oracle")
	rng.Shuffle(len(states), func(a, b int) { states[a], states[b] = states[b], states[a] })
	states = states[:min(oracleStates, len(states))]
	sort.Ints(states)
	if len(states) == 0 {
		return fmt.Errorf("gate: no judge ran without a write beside it")
	}

	oracle, err := core.NewEngine(peers, core.DefaultConfig())
	if err != nil {
		return err
	}
	for _, ev := range g.judgeLoad() {
		if err := oracle.ApplyEvent(ev); err != nil {
			return err
		}
	}
	applied, checked := 0, 0
	for _, st := range states {
		for ; applied < st; applied++ {
			for _, ev := range writes[applied] {
				if err := oracle.ApplyEvent(ev); err != nil {
					return err
				}
			}
		}
		sample := byState[st]
		rng.Shuffle(len(sample), func(a, b int) { sample[a], sample[b] = sample[b], sample[a] })
		for _, r := range sample[:min(oraclePerState, len(sample))] {
			q := reqs[r.req]
			owners := oracle.CollectOwnerEvaluations(q.file, q.owners, nowAt[st])
			want, err := oracle.JudgeFile(q.requester, owners, nowAt[st])
			if err != nil {
				return fmt.Errorf("gate: oracle judge: %w", err)
			}
			if want != r.j {
				return fmt.Errorf("gate: judge %d (peer %d, state %d) gave %+v, the unsharded engine %+v", r.req, q.requester, st, r.j, want)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("gate: no verdict checked")
	}
	return nil
}
