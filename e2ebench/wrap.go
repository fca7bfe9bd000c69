package main

import (
	"sync"
	"sync/atomic"

	"mdrep/internal/dht"
	"mdrep/internal/obs"
	"mdrep/internal/walk"
)

// Span depths on the walk-tcp path: an estimate calls Row, a Row miss
// calls Retrieve, and a Retrieve issues RPCs (a forwarded find_successor
// hop counts at the same depth as the RPC that caused it).
const (
	depthOp       = 0
	depthRow      = 1
	depthRetrieve = 2
	depthRPC      = 3
)

// rpcMethods are the dht.Client methods, in the order rpcCounts keeps
// them.
var rpcMethods = [...]string{"find_successor", "successors", "predecessor", "notify", "ping", "store", "retrieve"}

const (
	rpcFindSuccessor = iota
	rpcSuccessors
	rpcPredecessor
	rpcNotify
	rpcPing
	rpcStore
	rpcRetrieve
	numRPCMethods
)

// rpcCounts counts RPCs and their summed time per method.
type rpcCounts struct {
	calls [numRPCMethods]atomic.Uint64
	ns    [numRPCMethods]atomic.Int64
}

// traceReqs maps a program trace ID to the benchmark request it belongs
// to. The program carries its span context through every RPC, across
// the wire and through forwarded hops; in a traced run the benchmark
// enables the program's tracing so an RPC span can be tied to its
// estimate.
type traceReqs struct{ m sync.Map }

func (t *traceReqs) bind(sc obs.SpanContext, req uint64) {
	if sc.Trace != 0 {
		t.m.Store(sc.Trace, req)
	}
}

func (t *traceReqs) lookup(sc obs.SpanContext) uint64 {
	if v, ok := t.m.Load(sc.Trace); ok {
		return v.(uint64)
	}
	return 0
}

// rpcsSent counts every RPC any ring in this process sent, so a workload
// that must not touch the DHT can assert that it did not.
var rpcsSent atomic.Uint64

// countingClient wraps one node's transport (inside its RetryClient, so
// every attempt is one RPC). It always counts RPCs per method; it times
// them only when rec is set.
type countingClient struct {
	inner  dht.Client
	counts *rpcCounts // shared by the ring
	own    rpcCounts  // this node's RPCs only
	rec    *recorder
	reqs   *traceReqs
}

func (c *countingClient) done(m int, start int64, sc obs.SpanContext) {
	rpcsSent.Add(1)
	c.counts.calls[m].Add(1)
	c.own.calls[m].Add(1)
	if c.rec == nil {
		return
	}
	c.counts.ns[m].Add(c.rec.now() - start)
	c.rec.add("dht.rpc."+rpcMethods[m], depthRPC, c.reqs.lookup(sc), start)
}

func (c *countingClient) FindSuccessor(sc obs.SpanContext, addr string, id dht.ID) (dht.NodeRef, error) {
	start := c.rec.now()
	defer c.done(rpcFindSuccessor, start, sc)
	return c.inner.FindSuccessor(sc, addr, id)
}

func (c *countingClient) Successors(sc obs.SpanContext, addr string) ([]dht.NodeRef, error) {
	start := c.rec.now()
	defer c.done(rpcSuccessors, start, sc)
	return c.inner.Successors(sc, addr)
}

func (c *countingClient) Predecessor(sc obs.SpanContext, addr string) (dht.NodeRef, bool, error) {
	start := c.rec.now()
	defer c.done(rpcPredecessor, start, sc)
	return c.inner.Predecessor(sc, addr)
}

func (c *countingClient) Notify(sc obs.SpanContext, addr string, self dht.NodeRef) error {
	start := c.rec.now()
	defer c.done(rpcNotify, start, sc)
	return c.inner.Notify(sc, addr, self)
}

func (c *countingClient) Ping(sc obs.SpanContext, addr string) error {
	start := c.rec.now()
	defer c.done(rpcPing, start, sc)
	return c.inner.Ping(sc, addr)
}

func (c *countingClient) Store(sc obs.SpanContext, addr string, recs []dht.StoredRecord, replicate bool) error {
	start := c.rec.now()
	defer c.done(rpcStore, start, sc)
	return c.inner.Store(sc, addr, recs, replicate)
}

func (c *countingClient) Retrieve(sc obs.SpanContext, addr string, key dht.ID) ([]dht.StoredRecord, error) {
	start := c.rec.now()
	defer c.done(rpcRetrieve, start, sc)
	return c.inner.Retrieve(sc, addr, key)
}

// estimateProbe wraps one estimate's row source and the fetcher under
// it, counting Row calls and Retrieve calls and, in a traced run,
// recording a span around each.
type estimateProbe struct {
	req  uint64
	rec  *recorder
	reqs *traceReqs

	rows      atomic.Uint64
	retrieves atomic.Uint64
	once      sync.Once
}

// rowSource is the probe's walk.RowSource around the estimate's
// DHTSource.
type rowSource struct {
	p     *estimateProbe
	inner walk.RowSource
}

func (s rowSource) N() int { return s.inner.N() }

func (s rowSource) Row(sc obs.SpanContext, user int) ([]int32, []float64, error) {
	s.p.rows.Add(1)
	if s.p.rec == nil {
		return s.inner.Row(sc, user)
	}
	s.p.once.Do(func() { s.p.reqs.bind(sc, s.p.req) })
	start := s.p.rec.now()
	cols, vals, err := s.inner.Row(sc, user)
	s.p.rec.add("walk.row", depthRow, s.p.req, start)
	return cols, vals, err
}

// fetcher is the probe's walk.Fetcher around the entry node.
type fetcher struct {
	p     *estimateProbe
	inner walk.Fetcher
}

func (f fetcher) Retrieve(sc obs.SpanContext, key dht.ID) ([]dht.StoredRecord, error) {
	f.p.retrieves.Add(1)
	start := f.p.rec.now()
	recs, err := f.inner.Retrieve(sc, key)
	f.p.rec.add("dht.retrieve", depthRetrieve, f.p.req, start)
	return recs, err
}
