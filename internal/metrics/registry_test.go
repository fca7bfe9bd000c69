package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "op", "get")
	b := r.Counter("requests_total", "op", "get")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c := r.Counter("requests_total", "op", "put")
	if a == c {
		t.Fatal("different labels returned the same counter")
	}
	// Label order must not matter: sorted canonicalisation.
	d := r.Counter("multi_total", "b", "2", "a", "1")
	e := r.Counter("multi_total", "a", "1", "b", "2")
	if d != e {
		t.Fatal("label order changed instrument identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	assertPanics(t, "counter re-registered as gauge", func() { r.Gauge("x_total") })
	assertPanics(t, "invalid name", func() { r.Counter("0bad") })
	assertPanics(t, "odd labels", func() { r.Counter("y_total", "k") })
	assertPanics(t, "duplicate label key", func() { r.Counter("z_total", "k", "1", "k", "2") })
	r.Histogram("h_seconds", []float64{1, 2})
	assertPanics(t, "bounds mismatch", func() { r.Histogram("h_seconds", []float64{1, 3}) })
}

func assertPanics(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestRegistrySnapshotOrderingStable(t *testing.T) {
	r := NewRegistry()
	// Register in deliberately shuffled order.
	r.Counter("b_total", "op", "z")
	r.Gauge("a_gauge")
	r.Counter("b_total", "op", "a")
	r.Histogram("c_seconds", []float64{0.1, 1})
	want := []string{"a_gauge", `b_total{op="a"}`, `b_total{op="z"}`, "c_seconds"}
	snap := r.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d series, want %d", len(snap), len(want))
	}
	for i, s := range snap {
		if got := s.Name + s.Labels; got != want[i] {
			t.Errorf("series %d = %s, want %s", i, got, want[i])
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("rpc_total", "op", "get").Add(3)
	r.Gauge("depth").Set(2.5)
	h := r.Histogram("lat_seconds", []float64{0.5, 1})
	h.Observe(0.4)
	h.Observe(0.7)
	h.Observe(9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# TYPE depth gauge
depth 2.5
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.5"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 10.1
lat_seconds_count 3
# TYPE rpc_total counter
rpc_total{op="get"} 3
`
	if got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePrometheusEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "path", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", b.String())
	}
}

func TestDumpReport(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(7)
	h := r.Histogram("t_seconds", []float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	var b strings.Builder
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"events_total = 7", "t_seconds: count=10", "p50="} {
		if !strings.Contains(out, frag) {
			t.Errorf("Dump output missing %q:\n%s", frag, out)
		}
	}
}

func TestExpvarMap(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "op", "x").Add(2)
	r.Gauge("g").Set(1.25)
	r.Histogram("h_seconds", []float64{1}).Observe(0.5)
	m := r.ExpvarMap()
	if m[`c_total{op="x"}`] != uint64(2) {
		t.Errorf("counter = %v", m[`c_total{op="x"}`])
	}
	if m["g"] != 1.25 {
		t.Errorf("gauge = %v", m["g"])
	}
	hm, ok := m["h_seconds"].(map[string]interface{})
	if !ok || hm["count"] != uint64(1) {
		t.Errorf("histogram = %v", m["h_seconds"])
	}
}

func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	counters := make([]*Counter, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			counters[g] = r.Counter("shared_total", "op", "x")
			for i := 0; i < 1000; i++ {
				counters[g].Inc()
			}
		}(g)
	}
	wg.Wait()
	for _, c := range counters[1:] {
		if c != counters[0] {
			t.Fatal("concurrent registration returned distinct instruments")
		}
	}
	if got := counters[0].Load(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
}

// The hot-path guard backing `make obs`: Inc and Observe must not
// allocate. Benchmarks report the same via -benchmem.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total")
	h := r.Histogram("alloc_seconds", DurationBuckets)
	g := r.Gauge("alloc_gauge")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v bytes/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.002) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v bytes/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v bytes/op", n)
	}
}

// Nil handles are the disabled observer: every update is a no-op, every
// read is zero, and none of it allocates — instrumented packages call
// the handles of a zero-value observer directly.
func TestNilHandlesAreNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		c.Reset()
		g.Set(2)
		g.Add(1)
		h.Observe(0.5)
	}); n != 0 {
		t.Errorf("nil handle updates allocate %v times/op", n)
	}
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil handles read %d, %v, %d, %v; want zeros", c.Load(), g.Load(), h.Count(), h.Sum())
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Counts) != 0 {
		t.Errorf("nil histogram snapshot = %+v, want empty", s)
	}
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("nil histogram quantile = %v, want NaN", q)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}

func TestFormatFloatEdgeCases(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		100:     "100",
		0.5:     "0.5",
		1.50:    "1.5",
		1e12:    "1e+12",
		0.00001: "1e-05",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestDumpEmptyHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("empty_seconds", DurationBuckets)
	var b strings.Builder
	if err := reg.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty_seconds: count=0 (no samples)") {
		t.Errorf("empty histogram renders badly:\n%s", b.String())
	}
}
