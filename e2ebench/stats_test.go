package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestTailLevel checks the percentile rule: a tail is reported at the
// wanted percentile only when at least minBeyond samples lie beyond it,
// and otherwise at the highest percentile that has them.
func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, got  float64
		beyondWant int
	}{
		{n: 2000, want: 0.99, got: 0.99, beyondWant: 20},
		{n: 1000, want: 0.99, got: 0.99, beyondWant: 10},
		{n: 999, want: 0.99, got: 989.0 / 999, beyondWant: 10},
		{n: 100, want: 0.99, got: 0.90, beyondWant: 10},
		{n: 100, want: 0.90, got: 0.90, beyondWant: 10},
		{n: 60, want: 0.90, got: 50.0 / 60, beyondWant: 10},
		{n: 11, want: 0.99, got: 1.0 / 11, beyondWant: 10},
		{n: 10, want: 0.99, got: 0, beyondWant: 0},
	} {
		got := tailLevel(tc.n, tc.want)
		if got != tc.got {
			t.Errorf("tailLevel(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.got)
			continue
		}
		if got == 0 {
			continue
		}
		samples := make([]float64, tc.n)
		for k := range samples {
			samples[k] = float64(k + 1)
		}
		v := percentile(samples, got)
		beyond := tc.n - sort.SearchFloat64s(samples, v) - 1
		if beyond != tc.beyondWant {
			t.Errorf("n=%d: %d samples beyond the p%v value %v, want %d", tc.n, beyond, got*100, v, tc.beyondWant)
		}
	}
}

func TestSummarize(t *testing.T) {
	var l latencies
	for k := 1000; k >= 1; k-- {
		l.add(time.Duration(k) * time.Millisecond)
	}
	s, err := l.summarize(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if s.n != 1000 || s.p50 != 500 || s.tail != 990 || s.tailLevel != 0.99 {
		t.Errorf("summary = %+v, want n=1000 p50=500 tail=990 at 0.99", s)
	}
	if _, err := l[:10].summarize(0.99); err == nil {
		t.Error("10 samples gave a tail; want an error")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists and workloads in
// step with what the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for k := range want {
			if got[k].Name != want[k].name || got[k].Unit != want[k].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, k, got[k].Name, got[k].Unit, want[k].name, want[k].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadOrder))
	}
	for k, w := range spec.Workloads {
		if w.Name != workloadOrder[k] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", k, w.Name, workloadOrder[k])
		}
	}
}
