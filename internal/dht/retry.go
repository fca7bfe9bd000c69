package dht

import (
	"fmt"
	"sync"
	"time"

	"mdrep/internal/fault"
	"mdrep/internal/flight"
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
	"mdrep/internal/sim"
)

// RetryPolicy tunes the RetryClient's capped exponential backoff. Every
// DHT operation is idempotent — stores merge by (owner, timestamp),
// lookups and list reads are pure — so re-sending after an ambiguous
// failure is always safe.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (1 = no
	// retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff step.
	MaxDelay time.Duration
	// OpBudget bounds the summed backoff spent on one operation; when
	// the next delay would exceed the remaining budget the operation
	// fails with a fault.ErrTimeout-classified error. Zero means no
	// budget (MaxAttempts alone limits the loop). A negative budget is
	// a configuration error: operations fail fast with fault.Terminal
	// before the first attempt.
	OpBudget time.Duration
	// JitterFrac spreads each delay uniformly over
	// [1-JitterFrac, 1) × delay so synchronized clients do not retry in
	// lockstep. Zero disables jitter.
	JitterFrac float64
}

// DefaultRetryPolicy retries up to 4 times starting at 25ms, capped at
// 400ms per step and 2s per operation, with 50% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    400 * time.Millisecond,
		OpBudget:    2 * time.Second,
		JitterFrac:  0.5,
	}
}

// RetryMetrics exposes what the retry layer actually did. The counters
// are registry instruments: NewRetryClient binds them to a private
// registry so an un-instrumented client still counts, and Instrument
// rebinds them onto a shared registry for export.
type RetryMetrics struct {
	// Attempts counts every RPC issued, including first tries.
	Attempts *metrics.Counter
	// Retries counts re-issued RPCs (attempts beyond the first).
	Retries *metrics.Counter
	// Exhausted counts operations that failed after the last attempt
	// or ran out of backoff budget.
	Exhausted *metrics.Counter
}

// Snapshot returns the counters as a name→count map for logging.
func (m *RetryMetrics) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"attempts":  m.Attempts.Load(),
		"retries":   m.Retries.Load(),
		"exhausted": m.Exhausted.Load(),
	}
}

// RetryClient decorates a Client with capped exponential backoff on
// transient failures (fault.Retryable: unreachable peers, timeouts).
// Terminal errors — protocol violations, fault.Terminal pins — pass
// through immediately. Jitter is drawn from a seeded generator and the
// sleep function is injectable, so a fixed seed reproduces the exact
// backoff schedule in tests without wall-clock sleeps.
type RetryClient struct {
	inner  Client
	policy RetryPolicy

	mu  sync.Mutex
	rng *sim.RNG

	// sleep is the delay hook; NewRetryClient defaults it to time.Sleep.
	sleep func(time.Duration)

	// Metrics counts attempts, retries and exhausted operations.
	Metrics RetryMetrics

	// obs is the per-op latency surface (see Instrument); the zero
	// value is untimed.
	obs rpcObs
}

// NewRetryClient wraps inner with the given policy. The seed drives
// jitter only; two clients with the same seed back off identically.
func NewRetryClient(inner Client, policy RetryPolicy, seed uint64) *RetryClient {
	if policy.MaxAttempts < 1 {
		policy.MaxAttempts = 1
	}
	own := metrics.NewRegistry()
	return &RetryClient{
		inner:  inner,
		policy: policy,
		rng:    sim.NewRNG(seed),
		sleep:  time.Sleep,
		Metrics: RetryMetrics{
			Attempts:  own.Counter("dht_rpc_attempts_total"),
			Retries:   own.Counter("dht_rpc_retries_total"),
			Exhausted: own.Counter("dht_rpc_exhausted_total"),
		},
	}
}

// SetSleep replaces the delay hook (tests inject a virtual clock or a
// recorder). A nil fn makes backoff a no-op wait.
func (c *RetryClient) SetSleep(fn func(time.Duration)) {
	if fn == nil {
		fn = func(time.Duration) {}
	}
	c.sleep = fn
}

// nextDelay returns the backoff before retry number retry (1-based),
// with deterministic jitter.
func (c *RetryClient) nextDelay(retry int) time.Duration {
	d := c.policy.BaseDelay << uint(retry-1)
	if c.policy.BaseDelay > 0 && (d > c.policy.MaxDelay || d < c.policy.BaseDelay) {
		d = c.policy.MaxDelay // also catches shift overflow
	}
	if c.policy.JitterFrac > 0 && d > 0 {
		c.mu.Lock()
		u := c.rng.Float64()
		c.mu.Unlock()
		scale := 1 - c.policy.JitterFrac*u
		d = time.Duration(float64(d) * scale)
	}
	return d
}

// do runs op with retries. op must capture its own result variables and
// issue its RPC under the span context it is handed, so each attempt's
// transport span stitches under its attempt span. One "dht.op" span
// covers the whole logical call — every attempt plus the backoff between
// them — on both the trace side and op's latency histogram h.
func (c *RetryClient) do(sc obs.SpanContext, name string, h *metrics.Histogram, op func(obs.SpanContext) error) error {
	sp := obs.StartSpan(sc, spanOp)
	sp.Timed(c.obs.clock, h)
	sp.AttrStr(attrOp, name)
	err := c.attempts(&sp, name, op)
	sp.EndErr(err)
	return err
}

// attempts is do's retry loop. Exhaustion — the attempt cap or the
// backoff budget — triggers a flight-recorder dump: the ring then holds
// every attempt span of the doomed operation plus whatever else the
// node was doing while it starved.
func (c *RetryClient) attempts(osp *obs.Span, name string, op func(obs.SpanContext) error) error {
	if c.policy.OpBudget < 0 {
		// A negative budget can never be satisfied; treating it like
		// "no budget" would silently retry forever under a policy that
		// asked for the opposite. Fail before issuing any RPC, and make
		// it terminal so no outer layer retries the misconfiguration.
		return fault.Terminal(fmt.Errorf("dht: %s: negative backoff budget %v", name, c.policy.OpBudget))
	}
	var spent time.Duration
	var err error
	for attempt := 1; ; attempt++ {
		c.Metrics.Attempts.Inc()
		asp := obs.StartChild(osp.Context(), spanAttempt)
		asp.Attr(attrAttempt, int64(attempt))
		err = op(asp.Context())
		asp.EndErr(err)
		if err == nil || !fault.Retryable(err) {
			return err
		}
		if attempt >= c.policy.MaxAttempts {
			c.Metrics.Exhausted.Inc()
			flight.TriggerDump(dumpReasonExhausted + name)
			return fmt.Errorf("dht: %s failed after %d attempts: %w", name, attempt, err)
		}
		d := c.nextDelay(attempt)
		if c.policy.OpBudget > 0 && spent+d > c.policy.OpBudget {
			c.Metrics.Exhausted.Inc()
			flight.TriggerDump(dumpReasonExhausted + name)
			return fmt.Errorf("dht: %s backoff budget exhausted after %d attempts: %w",
				name, attempt, fault.Timeout(err))
		}
		spent += d
		c.Metrics.Retries.Inc()
		c.sleep(d)
	}
}

// FindSuccessor implements Client.
func (c *RetryClient) FindSuccessor(sc obs.SpanContext, addr string, id ID) (NodeRef, error) {
	var ref NodeRef
	err := c.do(sc, "find_successor", c.obs.find, func(asc obs.SpanContext) error {
		var e error
		ref, e = c.inner.FindSuccessor(asc, addr, id)
		return e
	})
	return ref, err
}

// Successors implements Client.
func (c *RetryClient) Successors(sc obs.SpanContext, addr string) ([]NodeRef, error) {
	var refs []NodeRef
	err := c.do(sc, "successors", c.obs.succ, func(asc obs.SpanContext) error {
		var e error
		refs, e = c.inner.Successors(asc, addr)
		return e
	})
	return refs, err
}

// Predecessor implements Client.
func (c *RetryClient) Predecessor(sc obs.SpanContext, addr string) (NodeRef, bool, error) {
	var ref NodeRef
	var ok bool
	err := c.do(sc, "predecessor", c.obs.pred, func(asc obs.SpanContext) error {
		var e error
		ref, ok, e = c.inner.Predecessor(asc, addr)
		return e
	})
	return ref, ok, err
}

// Notify implements Client.
func (c *RetryClient) Notify(sc obs.SpanContext, addr string, self NodeRef) error {
	return c.do(sc, "notify", c.obs.notify, func(asc obs.SpanContext) error { return c.inner.Notify(asc, addr, self) })
}

// Ping implements Client. Liveness probes are how the ring *detects*
// dead nodes, so a failed ping is not retried: stabilisation must see
// the failure promptly and route around it.
func (c *RetryClient) Ping(sc obs.SpanContext, addr string) error {
	sp := obs.Timed(c.obs.clock, c.obs.ping)
	defer sp.End()
	c.Metrics.Attempts.Inc()
	return c.inner.Ping(sc, addr)
}

// Store implements Client.
func (c *RetryClient) Store(sc obs.SpanContext, addr string, recs []StoredRecord, replicate bool) error {
	return c.do(sc, "store", c.obs.store, func(asc obs.SpanContext) error { return c.inner.Store(asc, addr, recs, replicate) })
}

// Retrieve implements Client.
func (c *RetryClient) Retrieve(sc obs.SpanContext, addr string, key ID) ([]StoredRecord, error) {
	var recs []StoredRecord
	err := c.do(sc, "retrieve", c.obs.retrieve, func(asc obs.SpanContext) error {
		var e error
		recs, e = c.inner.Retrieve(asc, addr, key)
		return e
	})
	return recs, err
}

var _ Client = (*RetryClient)(nil)
