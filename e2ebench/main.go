// Command e2ebench is mdrep's end-to-end benchmark. It drives three
// workloads through the program's public APIs on one Maze-like trace
// (2000 peers, 8000 files):
//
//   - ingest: durable writes through journal.OpenSharded (K=2): an open
//     loop at a fixed rate with group commit, a crash, a closed loop of
//     64-event batches on a fresh journal, then repeated recovery of the
//     crashed one;
//   - judge: open-loop file judgements (R_f, Eq. 9) at 100/s on a
//     journal-backed engine, beside one 16-event write batch per second;
//   - walk-tcp: random-walk reputation estimates over a ring of 8 Chord
//     nodes that talk real TCP on 127.0.0.1.
//
// Every run checks its outputs (recovered state, verdicts, estimates)
// against an independent reference and aborts (exit 1, no result line)
// when a check fails. Run everything from the
// repository root with
//
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// One workload: --workload ingest|judge|walk-tcp. --trace 0 prints the
// end-to-end metrics; --trace 1 runs the workload once untraced and once
// traced, and prints the per-layer metrics, the self time per layer and
// the tracing overhead, and writes every span to the work directory.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --workload all,
// peak_rss_mb is the process's peak so far, so it is meaningful for the
// first workload only; run workloads one by one to compare it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mdrep/internal/metrics"
)

// runEnv is what one workload run gets from the command line.
type runEnv struct {
	seed    uint64
	seconds float64
	dir     string            // private scratch directory of this run
	rec     *recorder         // nil when untraced
	reg     *metrics.Registry // program observers' registry; nil when untraced
}

// traced reports whether this run records spans and reads observers.
func (e *runEnv) traced() bool { return e.rec != nil }

// result is what a workload run measured.
type result struct {
	attempted, failed int
	// End-to-end metrics under the names BENCHMARK.json gives them; see
	// endToEnd for what each means on each workload.
	e2e map[string]float64
	// lines are the per-workload metrics under their own names
	// (ingest_eps, judge_p50_ms, …), printed for people.
	lines []line
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	table  layerTable
}

type line struct {
	name  string
	value float64
	unit  string
	note  string
}

func (r *result) say(name string, value float64, unit, note string) {
	r.lines = append(r.lines, line{name, value, unit, note})
}

// metricSpec names one metric of BENCHMARK.json.
type metricSpec struct{ name, unit string }

// endToEnd are the end-to-end metrics every workload reports. Their
// meaning per workload:
//
//	throughput_per_s  ingest: events acknowledged/s in the closed loop;
//	                  judge: judgements delivered/s; walk-tcp: estimates/s
//	p50_ms            ingest: acknowledgement of a 64-event batch in the
//	                  closed loop; judge: a judgement that started on time
//	                  and found the TM cached, from when it was due;
//	                  walk-tcp: an estimate
//	tail_ms           ingest: p99 of event acknowledgements in the open
//	                  loop, from when each event was due; judge: p95 of
//	                  judgements; walk-tcp: p90 of estimates; each lowered
//	                  to the highest percentile with 10 samples beyond it
//	side_ms           ingest: recovery after the crash; judge: median
//	                  latency of the judges that rebuilt the TM after a
//	                  write; walk-tcp: publication time per TM row
//
// Two printed p50s are not p50_ms. The open loop's event p50
// (ingest_p50_ms) is one commit's fsync-bound latency, whose quartile
// spread over 10 seeds on a 2-CPU VM reached 40% of its median, against
// 9% for the closed loop's batch p50. The p50 of all judgements
// (judge_p50_ms) mixes in the ~20% of judges queued behind a rebuild, so
// it slides along the cached judges' long upper tail as rebuilds speed
// up or slow down (spread up to 29%); the tail already measures those
// stalls.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"side_ms", "ms"},
}

// perLayer are the traced run's metrics; a layer a workload does not
// touch reports 0. Times come from the benchmark's spans around calls
// into each layer, counts from its wrappers of dht.Client, walk.Fetcher
// and walk.RowSource and from the program's own observers
// (journal.NewLogObs, core.NewShardedObs, RetryClient.Metrics):
//
//	journal.*  ApplyBatch time and batch size, fsyncs per 1000 events,
//	           WAL and snapshot bytes measured on disk, events replayed
//	core.*     CollectOwnerEvaluations, TM(now) on a hit and on a
//	           rebuild, JudgeFileFromTM; rebuilds per 1000 judges; the
//	           rebuild's wait for every shard lock
//	sparse.*   nonzeros of the TM, and of the TM each rebuild produced
//	walk.*     estimate time outside Row, Row calls per estimate, row
//	           cache hit ratio, Row time outside Retrieve per miss
//	dht.*      Retrieve time per row, RPCs (forwarded hops included)
//	           and lookup hops per row, time per RPC by method, retries,
//	           RPCs per published row
//	self.*     self time per request of each layer (op: no layer span
//	           covers it, e.g. queueing)
var perLayer = []metricSpec{
	{"journal.apply_batch_us", "us"},
	{"journal.events_per_batch", "count"},
	{"journal.fsyncs_per_kevent", "count"},
	{"journal.wal_bytes_per_event", "B"},
	{"journal.snapshot_bytes", "B"},
	{"journal.recover_replayed", "count"},
	{"core.collect_us", "us"},
	{"core.tm_hit_us", "us"},
	{"core.judge_us", "us"},
	{"core.tm_rebuild_ms", "ms"},
	{"core.tm_rebuilds", "count"},
	{"core.lock_wait_ms", "ms"},
	{"sparse.tm_nnz", "count"},
	{"sparse.nnz_per_rebuild", "count"},
	{"walk.estimate_self_ms", "ms"},
	{"walk.row_calls_per_estimate", "count"},
	{"walk.cache_hit_ratio", "ratio"},
	{"walk.row_decode_us", "us"},
	{"dht.retrieve_us", "us"},
	{"dht.rpcs_per_row", "count"},
	{"dht.rpc_us.find_successor", "us"},
	{"dht.rpc_us.retrieve", "us"},
	{"dht.rpc_us.store", "us"},
	{"dht.lookup_hops_per_row", "count"},
	{"dht.retries", "count"},
	{"dht.publish_rpcs_per_row", "count"},
	{"go.alloc_kb_per_op", "kB"},
	{"self.op_ms", "ms"},
	{"self.journal_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.walk_ms", "ms"},
	{"self.dht_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"gen.lag_ms", "ms"},
}

var workloads = map[string]func(*runEnv) (*result, error){
	"ingest":   runIngest,
	"judge":    runJudge,
	"walk-tcp": runWalkTCP,
}

var workloadOrder = []string{"ingest", "judge", "walk-tcp"}

func main() {
	workload := flag.String("workload", "", "ingest, judge, walk-tcp or all")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/work", "directory for journals and span dumps")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	printHost()
	for _, name := range names {
		if err := runOne(name, *seed, *seconds, *trace == 1, *workdir); err != nil {
			fail(fmt.Errorf("%s: %w", name, err))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// runOne runs one workload, untraced, and for --trace 1 once more
// traced, and prints the result.
func runOne(name string, seed uint64, seconds float64, traced bool, workdir string) error {
	run := func(rec *recorder) (*result, error) {
		dir := filepath.Join(workdir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		env := &runEnv{seed: seed, seconds: seconds, dir: dir, rec: rec}
		if rec != nil {
			env.reg = metrics.NewRegistry()
		}
		res, err := workloads[name](env)
		if err != nil {
			return nil, err
		}
		if res.attempted < 1 {
			return nil, fmt.Errorf("no operation attempted")
		}
		return res, nil
	}
	steal := stealMeter()
	res, err := run(nil)
	if err != nil {
		return err
	}
	res.say("host_steal_share", steal(), "ratio", "CPU time the hypervisor took during the run (diagnostic)")
	fmt.Printf("# workload %s seed %d seconds %g\n", name, seed, seconds)
	for _, l := range res.lines {
		fmt.Printf("%-26s %14.6g %-6s %s\n", l.name, l.value, l.unit, l.note)
	}
	fmt.Printf("%-26s %14.6g %-6s %s\n", "fail_share", float64(res.failed)/float64(res.attempted), "ratio",
		fmt.Sprintf("%d of %d operations failed", res.failed, res.attempted))
	specs, values := endToEnd, res.e2e
	if traced {
		rec := newRecorder()
		tres, err := run(rec)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		tres.layers["trace.overhead_ms"] = tres.e2e["p50_ms"] - res.e2e["p50_ms"]
		tres.table.write(os.Stdout)
		for _, m := range perLayer {
			fmt.Printf("%-30s %14.6g %s\n", m.name, tres.layers[m.name], m.unit)
		}
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := rec.dump(path); err != nil {
			return err
		}
		fmt.Printf("# %d spans written to %s\n", len(rec.spans), path)
		specs, values = perLayer, tres.layers
	}
	out := map[string]any{}
	for _, m := range specs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printHost stamps the output with the host the numbers came from.
// Wall-clock numbers compare only against the same host's runs.
func printHost() {
	fmt.Printf("# host nproc=%d cpu=%q go=%s gomaxprocs=%d\n",
		runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOMAXPROCS(0))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB. Workloads
// read it when their timed phases end, before the correctness gates
// build their oracles.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// timeSetup runs setup reps times and returns the last result with the
// median set-up time in seconds; release frees each earlier result, and
// a collection after it keeps one set-up's garbage out of the next one's
// time and the run's peak RSS.
func timeSetup[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		v     T
		err   error
		times []float64
	)
	for k := 0; k < reps; k++ {
		start := time.Now()
		v, err = setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if k < reps-1 {
			release(v)
		}
		runtime.GC()
	}
	return v, median(times), nil
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

// allocKB returns the bytes allocated so far, in kB.
func allocKB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1024
}

// waitUntil sleeps until t, spinning through the last stretch so an
// open-loop arrival is issued on time rather than a timer-slack late.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const spinWindow = 1500 * time.Microsecond

// regSum sums a metric family of the run's observer registry across its
// label sets: counter values, or histogram sums.
func regSum(reg *metrics.Registry, name string) float64 {
	var v float64
	for _, s := range reg.Snapshot() {
		if s.Name != name {
			continue
		}
		switch s.Kind {
		case "counter":
			v += float64(s.Counter)
		case "histogram":
			v += s.Hist.Sum
		}
	}
	return v
}

// regCount sums the observation counts of a histogram family.
func regCount(reg *metrics.Registry, name string) float64 {
	var v float64
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Kind == "histogram" {
			v += float64(s.Hist.Count)
		}
	}
	return v
}

// finishTrace analyzes the run's spans into the self-time table and the
// self.* metrics, per request.
func finishTrace(env *runEnv, res *result) layerTable {
	t := env.rec.analyze()
	res.table = t
	for _, layer := range []string{"op", "journal", "core", "walk", "dht"} {
		res.layers["self."+layer+"_ms"] = float64(t.self[layer]) / 1e6 / float64(max(t.ops, 1))
	}
	return t
}

// pctName names a tail metric after the percentile it reports.
func pctName(prefix string, level float64) string {
	return fmt.Sprintf("%s_p%s_ms", prefix, strconv.FormatFloat(level*100, 'g', 4, 64))
}

// tailNote states the tail's sample count and why its level is what it
// is.
func tailNote(s summary, what string) string {
	return fmt.Sprintf("%d %s; tail = highest percentile <= wanted with %d beyond", s.n, what, minBeyond)
}

// sayLag reports how late the open-loop generator woke for arrivals it
// was idle for (a diagnostic).
func sayLag(res *result, lag latencies) {
	if len(lag) == 0 {
		res.say("gen_lag_ms", 0, "ms", "generator never idle")
		return
	}
	s, _ := lag.summarize(0.99)
	res.say("gen_lag_ms", s.tail, "ms", fmt.Sprintf("p%.4g of %d idle wake-ups (diagnostic)", s.tailLevel*100, s.n))
	res.layers["gen.lag_ms"] = s.tail
}

// cpuTicks reads the host's total and steal CPU ticks from /proc/stat.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	first, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(first)
	for k, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if k < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if k == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter reports the share of CPU time the hypervisor took from
// this host since the meter was made: a diagnostic that flags runs
// slowed by a busy neighbour.
func stealMeter() func() float64 {
	t0, s0 := cpuTicks()
	return func() float64 {
		t1, s1 := cpuTicks()
		if t1 <= t0 {
			return 0
		}
		return (s1 - s0) / (t1 - t0)
	}
}

// checkBacklog fails an open-loop phase whose queue grew instead of
// draining: the delivered rate must match the offered one, so the last
// operation may finish after the last arrival by at most one stall
// (a second) plus 5% of the phase.
func checkBacklog(tookS, offeredS float64) error {
	if drain := tookS - offeredS; drain > 1+0.05*offeredS {
		return fmt.Errorf("backlog grew: arrivals spanned %.2f s, completions %.2f s; delivered %.1f%% of the offered rate",
			offeredS, tookS, 100*offeredS/tookS)
	}
	return nil
}
