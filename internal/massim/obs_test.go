package massim

import (
	"testing"
	"time"

	"mdrep/internal/metrics"
)

// TestInstrumentedRunMatchesPlain pins the massim metric families and
// the observer's non-interference: an instrumented run renders exactly
// as an uninstrumented one, and the per-scenario series account for
// the run's requests, epochs and verdict.
func TestInstrumentedRunMatchesPlain(t *testing.T) {
	scn, err := Lookup("collusion-front")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1000)
	plain, err := Run(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	var ticks time.Duration
	Instrument(reg, func() time.Time { ticks += time.Millisecond; return time.Unix(0, 0).Add(ticks) })
	defer Uninstrument()
	res, err := Run(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Render(), plain.Render(); got != want {
		t.Fatalf("instrumented run diverged:\n--- instrumented\n%s--- plain\n%s", got, want)
	}

	counter := func(name string) uint64 { return reg.Counter(name, "scenario", "collusion-front").Load() }
	for _, name := range []string{"massim_requests_total", "massim_epochs_total"} {
		if counter(name) == 0 {
			t.Errorf("%s = 0 after an instrumented run", name)
		}
	}
	if got := counter("massim_epochs_total"); got != uint64(res.Epochs) {
		t.Errorf("massim_epochs_total = %d, want %d", got, res.Epochs)
	}
	pass, fail := counter("massim_verdict_pass_total"), counter("massim_verdict_fail_total")
	if pass+fail != 1 {
		t.Errorf("verdict counters pass=%d fail=%d, want exactly one verdict", pass, fail)
	}
	if res.Verdict.Pass != (pass == 1) {
		t.Errorf("verdict pass=%v but massim_verdict_pass_total = %d", res.Verdict.Pass, pass)
	}
	epochs := reg.Histogram("massim_epoch_seconds", metrics.DurationBuckets)
	if got, want := epochs.Count(), counter("massim_epochs_total"); got != want {
		t.Errorf("massim_epoch_seconds count = %d, want massim_epochs_total = %d", got, want)
	}
	if epochs.Sum() <= 0 {
		t.Errorf("massim_epoch_seconds sum = %v, want > 0 on a ticking clock", epochs.Sum())
	}
}
