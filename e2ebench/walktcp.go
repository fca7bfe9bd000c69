package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/dht"
	"mdrep/internal/obs"
	"mdrep/internal/sparse"
	"mdrep/internal/walk"
)

const (
	ringSize     = 8
	succListLen  = 3
	walkClients  = 2
	walkWalks    = 1000
	walkDepth    = 3
	twinSamples  = 3 // estimates re-run on a LocalSource twin
	stabilizeMin = 2*ringSize + 6
)

// ring is an in-process Chord ring of TCP servers on 127.0.0.1. Each
// node talks through RetryClient over its own counting wrapper over
// TCPClient, so every RPC attempt is counted once, at its sender.
type ring struct {
	servers []*dht.TCPNodeServer
	clients []*countingClient
	retry   []*dht.RetryClient
	counts  rpcCounts
}

func buildRing(env *runEnv, reqs *traceReqs) (*ring, error) {
	r := &ring{}
	for i := 0; i < ringSize; i++ {
		cc := &countingClient{inner: dht.NewTCPClient(), counts: &r.counts, rec: env.rec, reqs: reqs}
		rc := dht.NewRetryClient(cc, dht.DefaultRetryPolicy(), env.seed+uint64(i))
		cfg := dht.DefaultNodeConfig()
		cfg.SuccessorListLen = succListLen
		cfg.Storage = dht.NewStorage(0, nil)
		srv, err := dht.ServeTCPNode("127.0.0.1:0", rc, cfg)
		if err != nil {
			r.close()
			return nil, err
		}
		r.servers = append(r.servers, srv)
		r.clients = append(r.clients, cc)
		r.retry = append(r.retry, rc)
		if i > 0 {
			if err := srv.Node().Join(r.servers[0].Addr()); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	for round := 0; round < stabilizeMin; round++ {
		for _, s := range r.servers {
			s.Node().Stabilize()
		}
	}
	for _, s := range r.servers {
		s.Node().FixAllFingers()
	}
	if err := r.check(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// check requires every node's successor to be the next node by ring ID.
func (r *ring) check() error {
	refs := make([]dht.NodeRef, len(r.servers))
	for k, s := range r.servers {
		refs[k] = s.Node().Self()
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].ID < refs[b].ID })
	next := map[string]string{}
	for k, ref := range refs {
		next[ref.Addr] = refs[(k+1)%len(refs)].Addr
	}
	for _, s := range r.servers {
		if got := s.Node().Successor().Addr; got != next[s.Addr()] {
			return fmt.Errorf("ring did not stabilise: %s has successor %s, want %s", s.Addr(), got, next[s.Addr()])
		}
	}
	return nil
}

func (r *ring) close() {
	for _, s := range r.servers {
		_ = s.Close()
	}
}

func (r *ring) lookupHops() uint64 {
	var n uint64
	for _, s := range r.servers {
		n += s.Node().LookupHops()
	}
	return n
}

func (r *ring) retries() uint64 {
	var n uint64
	for _, rc := range r.retry {
		n += rc.Metrics.Snapshot()["retries"]
	}
	return n
}

// snapshot copies the ring's RPC counts and times per method.
func (r *ring) snapshot() (calls [numRPCMethods]uint64, ns [numRPCMethods]int64) {
	for m := range calls {
		calls[m] = r.counts.calls[m].Load()
		ns[m] = r.counts.ns[m].Load()
	}
	return calls, ns
}

type walkSetup struct {
	g     *generator
	tm    *sparse.CSR
	epoch uint64
	ring  *ring
}

// estimateOut is one estimate kept for the twin check.
type estimateOut struct {
	req walkReq
	est map[int]float64
}

// loadTM loads the judge workload's events into an in-memory engine and
// freezes its TM. Journaling would not change the TM (recovery and K are
// both invisible in it, which the judge and ingest gates check), so the
// walk workload skips the journal and keeps no engine alive beside the
// ring.
func loadTM(g *generator) (*sparse.CSR, uint64, error) {
	s, err := core.NewSharded(peers, shards, core.DefaultConfig())
	if err != nil {
		return nil, 0, err
	}
	load := g.judgeLoad()
	if err := s.ApplyBatch(load); err != nil {
		return nil, 0, err
	}
	tm, err := s.TM(load[len(load)-1].Time)
	return tm, s.Epoch(), err
}

// runWalkTCP is the decentralised read path: random-walk estimates whose
// TM rows come over a TCP Chord ring, each through a fresh DHTSource at
// a rotating entry node, from a closed loop of walkClients clients.
func runWalkTCP(env *runEnv) (*result, error) {
	res := &result{e2e: map[string]float64{}, layers: map[string]float64{}}
	reqs := &traceReqs{}
	st, setupS, err := timeSetup(setupReps, func() (walkSetup, error) {
		g, err := newGenerator(env.seed)
		if err != nil {
			return walkSetup{}, err
		}
		tm, epoch, err := loadTM(g)
		if err != nil {
			return walkSetup{}, err
		}
		r, err := buildRing(env, reqs)
		return walkSetup{g, tm, epoch, r}, err
	}, func(s walkSetup) { s.ring.close() })
	if err != nil {
		return nil, err
	}
	defer st.ring.close()
	res.e2e["setup_s"] = setupS
	res.say("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups (load, TM build, %d-node TCP ring)", setupReps, ringSize))
	if env.traced() {
		obs.EnableTracing(env.seed, obs.WallClock, 1)
		defer obs.DisableTracing()
	}

	// Publication: one Lookup and one replicated Store per row.
	r := st.ring
	calls0, ns0 := r.snapshot()
	t := time.Now()
	if err := walk.PublishRows(r.servers[0].Node(), st.tm, st.epoch); err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}
	publishS := time.Since(t).Seconds()
	calls1, ns1 := r.snapshot()
	res.e2e["side_ms"] = publishS * 1000 / peers
	res.say("publish_rows_per_s", peers/publishS, "1/s", fmt.Sprintf("%d rows, ring of %d, successor list %d", peers, ringSize, succListLen))

	sources := st.g.walkSources(int(env.seconds*10) + twinSamples)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		lat      latencies
		rows     uint64
		fetches  uint64
		failed   int
		kept     []estimateOut
		checkErr error
		wg       sync.WaitGroup
	)
	hops0, retries0, alloc0 := r.lookupHops(), r.retries(), allocKB()
	start := time.Now()
	measureFor := time.Duration(env.seconds * float64(time.Second))
	for c := 0; c < walkClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; time.Since(start) < measureFor; j++ {
				k := int(next.Add(1) - 1)
				if k >= len(sources) {
					return
				}
				q := sources[k]
				// Client c enters at nodes c, c+walkClients, …, so the two
				// clients never share an entry node and each node's
				// retrieve count belongs to one estimate at a time.
				e := (c + walkClients*j) % ringSize
				probe := &estimateProbe{req: uint64(k + 1), rec: env.rec, reqs: reqs}
				src, err := walk.NewDHTSource(fetcher{probe, r.servers[e].Node()}, peers, 0, st.epoch)
				var est *walk.Estimator
				if err == nil {
					est, err = walk.New(rowSource{probe, src}, walk.Config{Walks: walkWalks, Depth: walkDepth, Seed: q.seed})
				}
				before := r.clients[e].own.calls[rpcRetrieve].Load()
				ts, t0 := env.rec.now(), time.Now()
				var out map[int]float64
				if err == nil {
					out, err = est.Estimate(q.source)
				}
				d := time.Since(t0)
				env.rec.add("op.estimate", depthOp, probe.req, ts)
				rpcs := r.clients[e].own.calls[rpcRetrieve].Load() - before
				mu.Lock()
				rows += probe.rows.Load()
				fetches += probe.retrieves.Load()
				if err != nil {
					failed++
					lat = append(lat, failedLatency)
				} else {
					lat.add(d)
					if rpcs == 0 && checkErr == nil {
						checkErr = fmt.Errorf("self-check: estimate %d issued no Retrieve RPC", k)
					}
					if k < twinSamples {
						kept = append(kept, estimateOut{q, out})
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	calls2, ns2 := r.snapshot()
	hops, retries, allocEnd := r.lookupHops()-hops0, r.retries()-retries0, allocKB()
	res.e2e["peak_rss_mb"] = peakRSSMB()
	if checkErr != nil {
		return nil, checkErr
	}
	res.attempted, res.failed = len(lat), failed
	s, err := lat.summarize(0.90)
	if err != nil {
		return nil, err
	}
	eps := float64(len(lat)-failed) / elapsed
	res.e2e["throughput_per_s"] = eps
	res.e2e["p50_ms"], res.e2e["tail_ms"] = s.p50, s.tail
	res.say("walk_eps", eps, "1/s", fmt.Sprintf("%d clients, closed loop, %d walks depth %d", walkClients, walkWalks, walkDepth))
	res.say("walk_p50_ms", s.p50, "ms", "")
	res.say(pctName("walk", s.tailLevel), s.tail, "ms", tailNote(s, "estimates"))

	if err := twinCheck(st.tm, kept); err != nil {
		return nil, err
	}

	if env.traced() {
		t := finishTrace(env, res)
		n := float64(len(lat))
		rpcUS := func(m int, c0, c1 [numRPCMethods]uint64, n0, n1 [numRPCMethods]int64) float64 {
			return float64(n1[m]-n0[m]) / 1e3 / math.Max(float64(c1[m]-c0[m]), 1)
		}
		var rpcAll, pubAll uint64
		for m := range calls2 {
			rpcAll += calls2[m] - calls1[m]
			pubAll += calls1[m] - calls0[m]
		}
		res.layers["walk.estimate_self_ms"] = float64(t.self["op"]) / 1e6 / n
		res.layers["walk.row_calls_per_estimate"] = float64(rows) / n
		res.layers["walk.cache_hit_ratio"] = 1 - float64(fetches)/float64(rows)
		res.layers["walk.row_decode_us"] = float64(t.self["walk"]) / 1e3 / float64(fetches)
		res.layers["dht.retrieve_us"] = float64(t.total["dht.retrieve"]) / 1e3 / float64(max(t.spans["dht.retrieve"], 1))
		res.layers["dht.rpcs_per_row"] = float64(rpcAll) / float64(fetches)
		res.layers["dht.rpc_us.find_successor"] = rpcUS(rpcFindSuccessor, calls1, calls2, ns1, ns2)
		res.layers["dht.rpc_us.retrieve"] = rpcUS(rpcRetrieve, calls1, calls2, ns1, ns2)
		res.layers["dht.rpc_us.store"] = rpcUS(rpcStore, calls0, calls1, ns0, ns1)
		res.layers["dht.lookup_hops_per_row"] = float64(hops) / float64(fetches)
		res.layers["dht.retries"] = float64(retries)
		res.layers["dht.publish_rpcs_per_row"] = float64(pubAll) / peers
		res.layers["go.alloc_kb_per_op"] = (allocEnd - alloc0) / n
	}
	return res, nil
}

// twinCheck re-runs kept estimates on a LocalSource over the same TM
// with the same seed and source; the bytes must match.
func twinCheck(tm *sparse.CSR, kept []estimateOut) error {
	if len(kept) == 0 {
		return fmt.Errorf("gate: no estimate kept for the LocalSource twin")
	}
	local, err := walk.NewLocalSource(tm)
	if err != nil {
		return err
	}
	for _, k := range kept {
		est, err := walk.New(local, walk.Config{Walks: walkWalks, Depth: walkDepth, Seed: k.req.seed})
		if err != nil {
			return err
		}
		want, err := est.Estimate(k.req.source)
		if err != nil {
			return err
		}
		if string(encodeEstimate(k.est)) != string(encodeEstimate(want)) {
			return fmt.Errorf("gate: estimate for source %d over TCP differs from its LocalSource twin", k.req.source)
		}
	}
	return nil
}

// encodeEstimate is an estimate's canonical bytes: ascending column and
// the IEEE-754 bits of its value.
func encodeEstimate(m map[int]float64) []byte {
	cols := make([]int, 0, len(m))
	for c := range m {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	out := make([]byte, 0, 16*len(cols))
	for _, c := range cols {
		out = binary.BigEndian.AppendUint64(out, uint64(c))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(m[c]))
	}
	return out
}
