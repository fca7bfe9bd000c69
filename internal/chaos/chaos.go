// Package chaos is the fault-injection layer of the DHT stack: a
// decorator around the transport-agnostic dht.Client seam that injects
// latency, message loss (request and reply path), duplication, delayed
// out-of-order delivery, network partitions and node crash/restart — all
// driven by an injected virtual clock and a seeded generator, so every
// fault schedule is replayable bit-for-bit from a single seed.
//
// The package has three parts:
//
//   - Chaos (this file): the per-network fault injector. Each node gets
//     a ClientFor(addr) decorator bound to its own address, so
//     partitions and crashes can be enforced on both the caller and the
//     callee side of every RPC.
//   - Schedule (schedule.go): a deterministic generator of round-based
//     fault scripts (crash, restart, partition, heal) from one seed.
//   - Network (harness.go): a MemNet ring wired through Chaos (and
//     optionally dht.RetryClient) plus the invariant checks the chaos
//     property suite asserts — ring convergence, zero record loss under
//     replication, R_f agreement with the fault-free run.
//
// Nothing in this package reads the wall clock or global randomness; it
// is in the wallclock/detfloat lint gate alongside dht and core.
package chaos

import (
	"fmt"
	"sync"
	"time"

	"mdrep/internal/dht"
	"mdrep/internal/fault"
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
	"mdrep/internal/sim"
)

// Clock is the virtual time source chaos charges latency against. It
// never reads the wall clock; tests advance purely by injected latency.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative d is ignored).
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// Config tunes the injected fault mix. Zero values disable each fault.
type Config struct {
	// Seed drives every stochastic choice; the same seed and call
	// sequence reproduce the same faults.
	Seed uint64
	// RequestLoss and ReplyLoss drop that fraction of messages on each
	// path. A reply drop means the remote side effect happened but the
	// caller sees a failure — the ambiguous case retries must tolerate.
	RequestLoss, ReplyLoss float64
	// DupRate re-delivers that fraction of successful requests a second
	// time, exercising idempotency of the handlers.
	DupRate float64
	// DeferRate holds that fraction of Store deliveries back for a few
	// operations (up to DeferOps), reordering them against later
	// traffic. The caller sees success immediately — the message is "in
	// flight".
	DeferRate float64
	// DeferOps bounds how many subsequent operations a deferred store
	// may slip behind (default 4 when DeferRate > 0).
	DeferOps int
	// LatencyBase and LatencyJitter charge LatencyBase + U[0,Jitter)
	// of virtual time per RPC.
	LatencyBase, LatencyJitter time.Duration
	// OpTimeout fails an RPC whose sampled latency exceeds it, with a
	// fault.ErrTimeout-classified error. Zero disables timeouts.
	OpTimeout time.Duration
}

// Counters reports every fault the injector actually delivered.
type Counters struct {
	RequestDrops    metrics.Counter
	ReplyDrops      metrics.Counter
	Dups            metrics.Counter
	Deferred        metrics.Counter
	PartitionBlocks metrics.Counter
	Timeouts        metrics.Counter
	CrashBlocks     metrics.Counter
}

// Snapshot returns the counters as a name→count map.
func (c *Counters) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"request_drops":    c.RequestDrops.Load(),
		"reply_drops":      c.ReplyDrops.Load(),
		"dups":             c.Dups.Load(),
		"deferred":         c.Deferred.Load(),
		"partition_blocks": c.PartitionBlocks.Load(),
		"timeouts":         c.Timeouts.Load(),
		"crash_blocks":     c.CrashBlocks.Load(),
	}
}

// deferredOp is one held-back delivery; it runs when the op counter
// reaches due (or on Flush).
type deferredOp struct {
	due uint64
	run func()
}

// Chaos injects faults into every RPC of one simulated network. All
// methods are safe for concurrent use; determinism additionally requires
// a deterministic call order (the harness drives nodes sequentially).
type Chaos struct {
	inner dht.Client
	clock *Clock
	cfg   Config

	mu       sync.Mutex
	rng      *sim.RNG
	ops      uint64
	down     map[string]struct{}
	group    map[string]int // partition group per address; empty = whole
	deferred []deferredOp

	// Counters tallies delivered faults.
	Counters Counters

	// exp mirrors Counters onto a shared registry (Instrument); the zero
	// value mirrors nothing.
	exp chaosExport
}

// New wraps inner with fault injection. clock may be shared with other
// components; it must not be nil.
func New(inner dht.Client, clock *Clock, cfg Config) *Chaos {
	if cfg.DeferRate > 0 && cfg.DeferOps < 1 {
		cfg.DeferOps = 4
	}
	return &Chaos{
		inner: inner,
		clock: clock,
		cfg:   cfg,
		rng:   sim.NewRNG(cfg.Seed).DeriveStream("chaos"),
		down:  make(map[string]struct{}),
		group: make(map[string]int),
	}
}

// Crash marks addr as crashed: every RPC from or to it fails until
// Restart. The node's in-memory state is untouched here — the harness
// decides whether a restart comes back empty (real crash) or intact.
func (c *Chaos) Crash(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down[addr] = struct{}{}
}

// Restart clears a crash.
func (c *Chaos) Restart(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.down, addr)
}

// Down reports whether addr is currently crashed.
func (c *Chaos) Down(addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, down := c.down[addr]
	return down
}

// SetPartition splits the network: each address maps to a group, and
// RPCs crossing groups fail. Addresses missing from the map fall into
// group 0. Heal clears it.
func (c *Chaos) SetPartition(groups map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.group = make(map[string]int, len(groups))
	for addr, g := range groups {
		c.group[addr] = g
	}
}

// SetLoss adjusts the loss rates on a live network; the experiments
// sweep loss without rebuilding the ring.
func (c *Chaos) SetLoss(request, reply float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.RequestLoss, c.cfg.ReplyLoss = request, reply
}

// Heal removes any partition.
func (c *Chaos) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.group = make(map[string]int)
}

// Flush delivers every deferred message immediately.
func (c *Chaos) Flush() {
	c.mu.Lock()
	pending := c.deferred
	c.deferred = nil
	c.mu.Unlock()
	for _, op := range pending {
		op.run()
	}
}

// ClientFor returns the fault-injecting client for the node at from.
// Every node must issue its RPCs through its own bound client so the
// injector can enforce caller-side crashes and partitions.
func (c *Chaos) ClientFor(from string) dht.Client {
	return &boundClient{chaos: c, from: from}
}

// admit runs the request-path fault pipeline for one RPC and returns
// the deliveries that came due, to be run by the caller outside the
// lock (they may recurse into the injector).
func (c *Chaos) admit(from, to string) ([]deferredOp, error) {
	c.mu.Lock()
	c.ops++
	var due []deferredOp
	if len(c.deferred) > 0 {
		kept := c.deferred[:0]
		for _, op := range c.deferred {
			if op.due <= c.ops {
				due = append(due, op)
			} else {
				kept = append(kept, op)
			}
		}
		c.deferred = kept
	}
	latency := c.cfg.LatencyBase
	if c.cfg.LatencyJitter > 0 {
		latency += time.Duration(c.rng.Int63n(int64(c.cfg.LatencyJitter)))
	}
	err := c.verdictLocked(from, to, latency)
	c.mu.Unlock()
	c.clock.Advance(latency)
	return due, err
}

// verdictLocked decides the request-path fate of one RPC.
func (c *Chaos) verdictLocked(from, to string, latency time.Duration) error {
	if c.cfg.OpTimeout > 0 && latency > c.cfg.OpTimeout {
		c.Counters.Timeouts.Inc()
		c.exp.timeouts.Inc()
		return fmt.Errorf("chaos: rpc %s->%s exceeded op timeout: %w", from, to, fault.ErrTimeout)
	}
	if _, down := c.down[from]; down {
		c.Counters.CrashBlocks.Inc()
		c.exp.crashBlocks.Inc()
		return fmt.Errorf("chaos: caller %s crashed: %w", from, dht.ErrNodeUnreachable)
	}
	if _, down := c.down[to]; down {
		c.Counters.CrashBlocks.Inc()
		c.exp.crashBlocks.Inc()
		return fmt.Errorf("chaos: callee %s crashed: %w", to, dht.ErrNodeUnreachable)
	}
	if len(c.group) > 0 && c.group[from] != c.group[to] {
		c.Counters.PartitionBlocks.Inc()
		c.exp.partitionBlocks.Inc()
		return fmt.Errorf("chaos: %s and %s partitioned: %w", from, to, dht.ErrNodeUnreachable)
	}
	if c.cfg.RequestLoss > 0 && c.rng.Float64() < c.cfg.RequestLoss {
		c.Counters.RequestDrops.Inc()
		c.exp.requestDrops.Inc()
		return fmt.Errorf("chaos: request %s->%s dropped: %w", from, to, dht.ErrNodeUnreachable)
	}
	return nil
}

// replyLost decides the reply-path fate after the handler ran.
func (c *Chaos) replyLost(from, to string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.ReplyLoss > 0 && c.rng.Float64() < c.cfg.ReplyLoss {
		c.Counters.ReplyDrops.Inc()
		c.exp.replyDrops.Inc()
		return fmt.Errorf("chaos: reply %s->%s dropped: %w", to, from, dht.ErrNodeUnreachable)
	}
	return nil
}

// shouldDup decides whether to deliver a request a second time.
func (c *Chaos) shouldDup() bool {
	if c.cfg.DupRate <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() < c.cfg.DupRate {
		c.Counters.Dups.Inc()
		c.exp.dups.Inc()
		return true
	}
	return false
}

// maybeDefer queues run for delayed delivery and reports whether it was
// deferred.
func (c *Chaos) maybeDefer(run func()) bool {
	if c.cfg.DeferRate <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() >= c.cfg.DeferRate {
		return false
	}
	c.Counters.Deferred.Inc()
	c.exp.deferred.Inc()
	slip := uint64(1 + c.rng.Intn(c.cfg.DeferOps))
	c.deferred = append(c.deferred, deferredOp{due: c.ops + slip, run: run})
	return true
}

// boundClient is the per-node face of the injector.
type boundClient struct {
	chaos *Chaos
	from  string
}

// begin runs the request-path pipeline, delivering due deferred
// messages first (outside the injector lock — they may recurse).
func (b *boundClient) begin(to string) error {
	due, err := b.chaos.admit(b.from, to)
	for _, op := range due {
		op.run()
	}
	return err
}

// FindSuccessor implements dht.Client.
func (b *boundClient) FindSuccessor(sc obs.SpanContext, addr string, id dht.ID) (dht.NodeRef, error) {
	if err := b.begin(addr); err != nil {
		return dht.NodeRef{}, err
	}
	ref, err := b.chaos.inner.FindSuccessor(sc, addr, id)
	if err != nil {
		return dht.NodeRef{}, err
	}
	if b.chaos.shouldDup() {
		if dupRef, dupErr := b.chaos.inner.FindSuccessor(sc, addr, id); dupErr == nil {
			ref = dupRef
		}
	}
	if err := b.chaos.replyLost(b.from, addr); err != nil {
		return dht.NodeRef{}, err
	}
	return ref, nil
}

// Successors implements dht.Client.
func (b *boundClient) Successors(sc obs.SpanContext, addr string) ([]dht.NodeRef, error) {
	if err := b.begin(addr); err != nil {
		return nil, err
	}
	refs, err := b.chaos.inner.Successors(sc, addr)
	if err != nil {
		return nil, err
	}
	if err := b.chaos.replyLost(b.from, addr); err != nil {
		return nil, err
	}
	return refs, nil
}

// Predecessor implements dht.Client.
func (b *boundClient) Predecessor(sc obs.SpanContext, addr string) (dht.NodeRef, bool, error) {
	if err := b.begin(addr); err != nil {
		return dht.NodeRef{}, false, err
	}
	ref, ok, err := b.chaos.inner.Predecessor(sc, addr)
	if err != nil {
		return dht.NodeRef{}, false, err
	}
	if err := b.chaos.replyLost(b.from, addr); err != nil {
		return dht.NodeRef{}, false, err
	}
	return ref, ok, nil
}

// Notify implements dht.Client. Duplicate notifies exercise the
// handler's idempotency (adopting the same predecessor twice).
func (b *boundClient) Notify(sc obs.SpanContext, addr string, self dht.NodeRef) error {
	if err := b.begin(addr); err != nil {
		return err
	}
	if err := b.chaos.inner.Notify(sc, addr, self); err != nil {
		return err
	}
	if b.chaos.shouldDup() {
		_ = b.chaos.inner.Notify(sc, addr, self)
	}
	return b.chaos.replyLost(b.from, addr)
}

// Ping implements dht.Client.
func (b *boundClient) Ping(sc obs.SpanContext, addr string) error {
	if err := b.begin(addr); err != nil {
		return err
	}
	if err := b.chaos.inner.Ping(sc, addr); err != nil {
		return err
	}
	return b.chaos.replyLost(b.from, addr)
}

// Store implements dht.Client. A store may be deferred (delivered late,
// out of order) or duplicated; both are legal under the storage layer's
// merge-by-(owner, timestamp) semantics.
func (b *boundClient) Store(sc obs.SpanContext, addr string, recs []dht.StoredRecord, replicate bool) error {
	if err := b.begin(addr); err != nil {
		return err
	}
	inner, from := b.chaos.inner, b.from
	if b.chaos.maybeDefer(func() { _ = inner.Store(sc, addr, recs, replicate) }) {
		return nil // "in flight": the caller sees success now
	}
	if err := inner.Store(sc, addr, recs, replicate); err != nil {
		return err
	}
	if b.chaos.shouldDup() {
		_ = inner.Store(sc, addr, recs, replicate)
	}
	return b.chaos.replyLost(from, addr)
}

// Retrieve implements dht.Client.
func (b *boundClient) Retrieve(sc obs.SpanContext, addr string, key dht.ID) ([]dht.StoredRecord, error) {
	if err := b.begin(addr); err != nil {
		return nil, err
	}
	recs, err := b.chaos.inner.Retrieve(sc, addr, key)
	if err != nil {
		return nil, err
	}
	if err := b.chaos.replyLost(b.from, addr); err != nil {
		return nil, err
	}
	return recs, nil
}

var _ dht.Client = (*boundClient)(nil)
