// Causal tracing: spans with trace/span/parent IDs. A causal Span names
// one region of one request, carries a bounded set of attributes,
// classifies its ending through the internal/fault taxonomy, and
// streams its record into the flight recorder ring (internal/flight)
// when it ends. Span contexts thread explicitly through call chains
// (Go has no ambient request context in this codebase's deterministic
// core) and cross process boundaries as a wire.TraceContext header, so
// one walk estimate stitches into one tree of estimator → row-fetch →
// retry-attempt → DHT-RPC spans.
//
// Determinism contract: tracing draws no randomness from any shared
// stream (IDs come from a private splitmix64 counter), never advances
// a virtual clock (timestamps are read from the injected Clock but
// influence no control flow), and sampling is a pure function of the
// seeded trace ID — so enabling tracing cannot perturb a chaos
// schedule or a walk estimate by a single byte.
package obs

import (
	"sync/atomic"
	"time"

	"mdrep/internal/fault"
	"mdrep/internal/flight"
	"mdrep/internal/metrics"
	"mdrep/internal/wire"
)

// SpanContext identifies a position in a trace: the trace it belongs
// to, the span that is current, and whether the trace was sampled at
// its root. The zero SpanContext is "no trace"; an unsampled context
// still carries IDs so a trace keeps its identity across hops without
// recording anything.
type SpanContext struct {
	Trace   uint64
	Span    uint64
	Sampled bool
}

// Valid reports whether the context names a real trace position.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// MarshalWire encodes the context as a TRC1 header for a wire frame,
// or nil when there is nothing worth propagating (invalid, or
// unsampled — the receiver would ignore it anyway and start fresh).
func (sc SpanContext) MarshalWire() []byte {
	if !sc.Valid() || !sc.Sampled {
		return nil
	}
	buf, err := wire.TraceContext{Trace: sc.Trace, Span: sc.Span, Sampled: true}.Encode()
	if err != nil {
		return nil
	}
	return buf
}

// SpanContextFromWire decodes a TRC1 header from a frame. Absent,
// truncated, or corrupt headers yield the zero context — tracing is
// best-effort at the boundary, never a request failure.
func SpanContextFromWire(buf []byte) SpanContext {
	if len(buf) == 0 {
		return SpanContext{}
	}
	tc, err := wire.DecodeTraceContext(buf)
	if err != nil {
		return SpanContext{}
	}
	return SpanContext{Trace: tc.Trace, Span: tc.Span, Sampled: tc.Sampled}
}

// TraceSink generates IDs, decides sampling, and stamps spans with its
// clock. One sink is installed process-wide by EnableTracing.
type TraceSink struct {
	clock Clock
	seed  uint64
	every uint64
	ctr   atomic.Uint64
}

var tracing atomic.Pointer[TraceSink]

// EnableTracing installs a process-wide trace sink: IDs derive from
// seed via a private splitmix64 counter, timestamps come from clock,
// and one in sampleEvery root spans is sampled (≤1 samples all).
// A nil clock disables tracing.
func EnableTracing(seed uint64, clock Clock, sampleEvery int) {
	if clock == nil {
		tracing.Store(nil)
		return
	}
	s := &TraceSink{clock: clock, seed: seed, every: 1}
	if sampleEvery > 1 {
		s.every = uint64(sampleEvery)
	}
	tracing.Store(s)
}

// DisableTracing uninstalls the trace sink; in-flight spans finish
// against the sink they started with.
func DisableTracing() { tracing.Store(nil) }

// TracingEnabled reports whether a sink is installed.
func TracingEnabled() bool { return tracing.Load() != nil }

// nextID draws a fresh nonzero ID from the sink's private counter —
// no shared RNG stream is consumed, so replay determinism holds.
func (s *TraceSink) nextID() uint64 {
	id := mix64(s.seed + s.ctr.Add(1)*0x9e3779b97f4a7c15)
	if id == 0 {
		id = 1
	}
	return id
}

// sampled is the deterministic root-sampling decision: a pure function
// of the trace ID, so the same seed samples the same traces.
func (s *TraceSink) sampledTrace(trace uint64) bool {
	if s.every <= 1 {
		return true
	}
	return mix64(trace)%s.every == 0
}

// mix64 is the splitmix64 finalizer, the repo's standard bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Span is one in-flight span with two independent sides. The causal
// side (StartRoot/StartChild/StartSpan) carries trace IDs and bounded
// attributes, reads the trace sink's clock, and records into the
// flight ring when it ends. The histogram side (Timed) observes the
// elapsed seconds, read on the instrumenting package's injected clock,
// into one metrics.Histogram. A span opened by the package-level Timed
// is histogram-only: it never draws a trace ID and never touches the
// flight ring, so hot paths such as journal appends and sparse kernels
// cannot evict RPC spans from the ring.
//
// The zero Span is inert: every method is a cheap no-op, which is how
// disabled tracing, sampled-out traces and disabled observers cost one
// branch per call site. Span is used by pointer so attribute stores do
// not copy; it must not escape the request that created it.
type Span struct {
	sink   *TraceSink
	sc     SpanContext
	parent uint64
	name   string
	start  time.Time
	nattr  int
	attrs  [flight.MaxAttrs]flight.Attr

	clock  Clock // histogram side; nil when untimed
	hist   *metrics.Histogram
	hstart time.Time
}

// Timed opens a histogram-only span: End observes its duration, in
// seconds on clock, into h. A nil clock or nil h yields an inert span.
func Timed(clock Clock, h *metrics.Histogram) Span {
	var s Span
	s.Timed(clock, h)
	return s
}

// Timed adds the histogram side to a span, starting it now on clock;
// End then also observes the duration into h. A nil clock or nil h
// leaves the span untimed.
func (t *Span) Timed(clock Clock, h *metrics.Histogram) {
	if clock == nil || h == nil {
		return
	}
	t.clock, t.hist, t.hstart = clock, h, clock()
}

// StartRoot opens a new trace. When the sink samples the trace out (or
// tracing is disabled after IDs were drawn), the returned span records
// nothing but still carries an unsampled context, so downstream
// children inherit the decision instead of re-rooting.
func StartRoot(name string) Span {
	s := tracing.Load()
	if s == nil {
		return Span{}
	}
	trace := s.nextID()
	if !s.sampledTrace(trace) {
		return Span{sc: SpanContext{Trace: trace, Span: trace, Sampled: false}}
	}
	return Span{
		sink:  s,
		sc:    SpanContext{Trace: trace, Span: trace, Sampled: true},
		name:  name,
		start: s.clock(),
	}
}

// StartChild opens a span under parent. An invalid parent yields an
// inert span; an unsampled parent propagates its context unrecorded.
func StartChild(parent SpanContext, name string) Span {
	if !parent.Valid() {
		return Span{}
	}
	if !parent.Sampled {
		return Span{sc: parent}
	}
	s := tracing.Load()
	if s == nil {
		return Span{sc: parent}
	}
	return Span{
		sink:   s,
		sc:     SpanContext{Trace: parent.Trace, Span: s.nextID(), Sampled: true},
		parent: parent.Span,
		name:   name,
		start:  s.clock(),
	}
}

// StartSpan is the boundary helper: a child when the caller supplied a
// context, a fresh root otherwise. Transport servers and shared
// plumbing use it so untraced maintenance traffic still feeds the
// always-on flight ring as roots of its own.
func StartSpan(parent SpanContext, name string) Span {
	if parent.Valid() {
		return StartChild(parent, name)
	}
	return StartRoot(name)
}

// Context returns the span's context for propagation to children and
// across the wire.
func (t *Span) Context() SpanContext { return t.sc }

// Recording reports whether End will emit a record.
func (t *Span) Recording() bool { return t.sink != nil }

// Attr attaches an integer attribute. Keys must come from package
// const tables (enforced by the metriclabel analyzer) so trace
// cardinality stays bounded; values are free. Attributes beyond
// flight.MaxAttrs are dropped.
func (t *Span) Attr(key string, val int64) {
	if t.sink == nil || t.nattr >= flight.MaxAttrs {
		return
	}
	t.attrs[t.nattr] = flight.Attr{Key: key, Val: val}
	t.nattr++
}

// AttrStr attaches a string attribute; same key discipline as Attr.
// Values longer than the flight ring's packed window are truncated at
// record time.
func (t *Span) AttrStr(key, val string) {
	if t.sink == nil || t.nattr >= flight.MaxAttrs {
		return
	}
	t.attrs[t.nattr] = flight.Attr{Key: key, Str: val}
	t.nattr++
}

// Event drops a point-in-time marker inside the span.
func (t *Span) Event(name string) {
	if t.sink == nil {
		return
	}
	now := t.sink.clock().UnixNano()
	e := flight.Entry{
		Trace:  t.sc.Trace,
		Span:   t.sc.Span,
		Parent: t.sc.Span,
		Kind:   flight.KindEvent,
		Start:  now,
		Name:   name,
	}
	flight.Emit(&e)
}

// End finishes the span successfully.
func (t *Span) End() { t.EndErr(nil) }

// EndErr finishes the span: observes its duration into the histogram
// side, if timed, and, if recording, emits its record with err's fault
// classification into the flight ring, and — when err is fault.Terminal —
// triggers a black-box dump so the ring's view of the moments before
// the fault is preserved. Idempotent: later calls are no-ops.
func (t *Span) EndErr(err error) {
	if h := t.hist; h != nil {
		t.hist = nil
		h.Observe(t.clock().Sub(t.hstart).Seconds())
	}
	s := t.sink
	if s == nil {
		return
	}
	t.sink = nil
	end := s.clock()
	e := flight.Entry{
		Trace:    t.sc.Trace,
		Span:     t.sc.Span,
		Parent:   t.parent,
		Kind:     flight.KindSpan,
		Status:   flight.StatusOf(err),
		Start:    t.start.UnixNano(),
		Duration: end.Sub(t.start).Nanoseconds(),
		Name:     t.name,
		Attrs:    t.attrs,
		NAttrs:   t.nattr,
	}
	flight.Emit(&e)
	if fault.IsTerminal(err) {
		flight.TriggerDump(dumpReasonTerminal + t.name)
	}
}

// dumpReasonTerminal prefixes the flight-dump reason for terminal span
// failures.
const dumpReasonTerminal = "fault.terminal: "
