package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mdrep/internal/flight"
	"mdrep/internal/metrics"
)

// fakeClock is a manually advanced clock for deterministic span tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Clock() Clock { return func() time.Time { return c.now } }

func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func TestSpanObservesDuration(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("op_seconds", []float64{0.1, 1, 10})
	fc := &fakeClock{now: time.Unix(1000, 0)}

	sp := Timed(fc.Clock(), h)
	fc.Advance(2 * time.Second)
	sp.End()

	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if h.Sum() != 2 {
		t.Fatalf("sum = %v, want 2s", h.Sum())
	}
	sp.End() // idempotent: a second End must not observe again
	if h.Count() != 1 {
		t.Fatalf("count after second End = %d, want 1", h.Count())
	}
}

// The histogram side of a causal span reads the observer's clock, not
// the trace sink's: a chaos run's virtual clock keeps timing it.
func TestCausalSpanTimedOnObserverClock(t *testing.T) {
	withTracing(t, 1)
	reg := metrics.NewRegistry()
	h := reg.Histogram("op_seconds", []float64{0.1, 1, 10})
	fc := &fakeClock{now: time.Unix(1000, 0)}

	sp := StartRoot("dht.op")
	sp.Timed(fc.Clock(), h)
	fc.Advance(3 * time.Second)
	sp.End()
	if h.Count() != 1 || h.Sum() != 3 {
		t.Fatalf("count, sum = %d, %v; want 1, 3s", h.Count(), h.Sum())
	}
}

func TestNilTracerAndHistogramAreInert(t *testing.T) {
	sp := Timed(nil, nil)
	sp.End() // must not panic

	reg := metrics.NewRegistry()
	h := reg.Histogram("x_seconds", []float64{1})
	disabled := Timed(nil, h) // nil clock: the disabled observer
	disabled.End()
	live := Timed(WallClock, nil) // nil histogram: also inert
	live.End()
	if h.Count() != 0 {
		t.Error("nil-clock or nil-histogram span observed something")
	}
}

// A histogram-only span never draws a trace ID and never writes to the
// flight ring, even with tracing on: hot-path timers must not evict the
// RPC spans a chaos dump is read for.
func TestTimedSpanSkipsFlightRing(t *testing.T) {
	rec := withTracing(t, 1)
	reg := metrics.NewRegistry()
	h := reg.Histogram("t_seconds", metrics.DurationBuckets)
	sp := Timed(testClock(), h)
	if sp.Recording() || sp.Context().Valid() {
		t.Fatalf("histogram-only span carries a trace: %+v", sp.Context())
	}
	sp.Attr("k", 1)
	sp.Event("e")
	sp.EndErr(errors.New("not recorded"))
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if recs := rec.Snapshot(); len(recs) != 0 {
		t.Fatalf("histogram-only span wrote %d flight records: %+v", len(recs), recs)
	}
	// The sink's ID counter did not move either: the next root is the
	// same trace a fresh sink would draw first.
	next := StartRoot("r")
	EnableTracing(42, testClock(), 1)
	fresh := StartRoot("r")
	if next.Context() != fresh.Context() {
		t.Errorf("histogram-only span consumed a trace ID: %+v vs fresh %+v", next.Context(), fresh.Context())
	}
}

func TestSpanZeroAlloc(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("z_seconds", metrics.DurationBuckets)
	fc := &fakeClock{now: time.Unix(0, 0)}
	clock := fc.Clock()
	if n := testing.AllocsPerRun(1000, func() { sp := Timed(clock, h); sp.End() }); n != 0 {
		t.Errorf("span start/end allocates %v bytes/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { sp := Timed(nil, h); sp.End() }); n != 0 {
		t.Errorf("disabled span allocates %v bytes/op", n)
	}
	withTracing(t, 1)
	if n := testing.AllocsPerRun(1000, func() {
		sp := StartRoot("z")
		sp.Timed(clock, h)
		sp.Attr("k", 1)
		sp.End()
	}); n != 0 {
		t.Errorf("causal+timed span allocates %v bytes/op", n)
	}
}

// BenchmarkSpan times the two shapes every instrumented region uses,
// each ended via defer as the hot paths do: a histogram-only span (the
// journal append, sparse kernels) and a causal span with a histogram
// side under live tracing (the DHT op, walk estimate). make obs gates
// both at 0 B/op.
func BenchmarkSpan(b *testing.B) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("bench_seconds", metrics.DurationBuckets)
	clock := testClock()
	b.Run("timed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			func() {
				sp := Timed(clock, h)
				defer sp.End()
			}()
		}
	})
	b.Run("causal+timed", func(b *testing.B) {
		flight.Install(flight.NewRecorder(1024, 4))
		EnableTracing(1, clock, 1)
		defer func() {
			DisableTracing()
			flight.Install(nil)
		}()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			func() {
				sp := StartRoot("bench")
				sp.Timed(clock, h)
				sp.Attr("k", int64(i))
				defer sp.End()
			}()
		}
	})
}

func TestServeIntrospection(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("test_total", "op", "x").Add(5)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, `test_total{op="x"} 5`) {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["mdrep_metrics"]; !ok {
		t.Error("/debug/vars missing mdrep_metrics")
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	if body := get("/"); !strings.Contains(body, "/metrics") {
		t.Error("index page missing endpoint list")
	}
}

// A second Serve with a fresh registry must repoint /debug/vars rather
// than panic on a duplicate expvar name.
func TestServeTwiceRepublishesExpvar(t *testing.T) {
	for i := 0; i < 2; i++ {
		reg := metrics.NewRegistry()
		reg.Counter("gen_total").Add(uint64(i + 1))
		srv, err := Serve("127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", srv.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		_ = srv.Close()
		want := fmt.Sprintf(`"gen_total":%d`, i+1)
		if !strings.Contains(string(body), want) {
			t.Errorf("round %d: /debug/vars missing %s:\n%s", i, want, body)
		}
	}
}
