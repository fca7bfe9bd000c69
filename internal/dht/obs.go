package dht

import (
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

// rpcObs is the RetryClient's latency surface: one histogram per RPC op
// (spanning all attempts and backoff of one logical call), timed on the
// clock Instrument was given. The zero rpcObs, an uninstrumented
// client's, has no histograms and leaves every op span untimed.
type rpcObs struct {
	clock    obs.Clock
	find     *metrics.Histogram
	succ     *metrics.Histogram
	pred     *metrics.Histogram
	notify   *metrics.Histogram
	ping     *metrics.Histogram
	store    *metrics.Histogram
	retrieve *metrics.Histogram
}

// Instrument rebinds the client's retry counters onto reg — as
// dht_rpc_attempts_total, dht_rpc_retries_total, dht_rpc_exhausted_total
// with the given extra label pairs — and starts recording per-op latency
// into dht_rpc_seconds{op=...}, timed by clock. Call before the client
// is shared across goroutines; earlier counts (on the construction-time
// private registry) are not carried over.
func (c *RetryClient) Instrument(reg *metrics.Registry, clock obs.Clock, labels ...string) {
	if reg == nil {
		return
	}
	c.Metrics = RetryMetrics{
		Attempts:  reg.Counter("dht_rpc_attempts_total", labels...),
		Retries:   reg.Counter("dht_rpc_retries_total", labels...),
		Exhausted: reg.Counter("dht_rpc_exhausted_total", labels...),
	}
	h := func(op string) *metrics.Histogram {
		return reg.Histogram("dht_rpc_seconds", metrics.DurationBuckets, append([]string{"op", op}, labels...)...)
	}
	c.obs = rpcObs{
		clock:    clock,
		find:     h("find_successor"),
		succ:     h("successors"),
		pred:     h("predecessor"),
		notify:   h("notify"),
		ping:     h("ping"),
		store:    h("store"),
		retrieve: h("retrieve"),
	}
}

// nodeObs is the ring-maintenance surface of a Node: stabilisation
// rounds, forwarded lookup hops, and how many nodes a Retrieve had to
// walk (root plus replicas) before answering. The zero nodeObs, an
// uninstrumented node's, has nil (no-op) handles.
type nodeObs struct {
	stabilizations *metrics.Counter   // dht_stabilize_rounds_total
	lookupHops     *metrics.Counter   // dht_lookup_hops_total
	walkDepth      *metrics.Histogram // dht_replica_walk_depth
}

// Instrument publishes the node's ring metrics into reg. Call before the
// node starts serving.
func (n *Node) Instrument(reg *metrics.Registry, labels ...string) {
	if reg == nil {
		return
	}
	n.obs = nodeObs{
		stabilizations: reg.Counter("dht_stabilize_rounds_total", labels...),
		lookupHops:     reg.Counter("dht_lookup_hops_total", labels...),
		walkDepth:      reg.Histogram("dht_replica_walk_depth", []float64{1, 2, 3, 4, 6, 8, 12, 16}, labels...),
	}
}
