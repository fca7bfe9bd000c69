package main

import (
	"flag"
	"strings"
	"testing"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/metrics"
	"mdrep/internal/walk"
)

var smokeScale = flag.Float64("smoke.scale", 1, "multiplies the smoke runs' length (e.g. 3 under -race)")

// TestSmoke runs every workload briefly, untraced and traced, through
// its correctness gates and self-checks, and requires every end-to-end
// metric and the per-layer metrics of the layers it loads.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for seconds")
	}
	for _, tc := range []struct {
		name    string
		seconds float64
		layers  []string // per-layer metric prefixes the workload must fill
	}{
		{"ingest", 4, []string{"journal.", "self.journal", "go."}},
		{"judge", 2, []string{"core.", "sparse.", "self.core", "go."}},
		{"walk-tcp", 8, []string{"walk.", "dht.rpc", "dht.retrieve", "dht.lookup", "dht.publish", "self.dht", "go."}},
	} {
		for _, traced := range []bool{false, true} {
			t.Run(tc.name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				env := &runEnv{seed: 7, seconds: tc.seconds * *smokeScale, dir: t.TempDir()}
				if traced {
					env.rec, env.reg = newRecorder(), metrics.NewRegistry()
				}
				res, err := workloads[tc.name](env)
				if err != nil {
					t.Fatal(err)
				}
				if res.attempted < 1 || res.failed != 0 {
					t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
				}
				for _, m := range endToEnd {
					if v := res.e2e[m.name]; v <= 0 {
						t.Errorf("%s = %v, want > 0", m.name, v)
					}
				}
				if !traced {
					return
				}
				for _, m := range perLayer {
					for _, p := range tc.layers {
						if strings.HasPrefix(m.name, p) && m.name != "dht.retries" && res.layers[m.name] <= 0 {
							t.Errorf("%s = %v, want > 0", m.name, res.layers[m.name])
						}
					}
				}
				if len(env.rec.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}

func TestCheckRebuilds(t *testing.T) {
	cached := judgeRun{state: 1, epoch: 2, epochAt: 2}
	rebuild := judgeRun{state: 1, epoch: 1, epochAt: 2}
	if _, err := checkRebuilds([]judgeRun{rebuild, cached}); err != nil {
		t.Errorf("one write, one rebuild, one cached judge: %v", err)
	}
	if _, err := checkRebuilds([]judgeRun{cached, cached}); err == nil {
		t.Error("no rebuilt judge passed")
	}
	if _, err := checkRebuilds([]judgeRun{rebuild, rebuild}); err == nil {
		t.Error("no cached judge passed")
	}
	second := judgeRun{state: 2, epoch: 2, epochAt: 2}
	if _, err := checkRebuilds([]judgeRun{rebuild, cached, second}); err == nil {
		t.Error("a write batch followed by judges but no rebuild passed")
	}
}

func TestJudgeOracleRejectsWrongVerdict(t *testing.T) {
	g, err := newGenerator(3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := g.judgeRequests(1)
	nowAt := []time.Duration{g.judgeLoad()[len(g.judgeLoad())-1].Time}
	wrong := []judgeRun{{req: 0, quiet: true, j: core.Judgement{Reputation: 0.123456789, Known: true, Fake: true}}}
	if err := judgeOracle(g, reqs, nil, nowAt, wrong); err == nil || !strings.Contains(err.Error(), "gate") {
		t.Errorf("wrong verdict: err = %v, want a gate failure", err)
	}
}

func TestTwinCheck(t *testing.T) {
	tm, err := walk.RandomTM(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	local, err := walk.NewLocalSource(tm)
	if err != nil {
		t.Fatal(err)
	}
	q := walkReq{source: 3, seed: 9}
	est, err := walk.New(local, walk.Config{Walks: walkWalks, Depth: walkDepth, Seed: q.seed})
	if err != nil {
		t.Fatal(err)
	}
	out, err := est.Estimate(q.source)
	if err != nil {
		t.Fatal(err)
	}
	if err := twinCheck(tm, []estimateOut{{q, out}}); err != nil {
		t.Errorf("identical estimate: %v", err)
	}
	for c := range out {
		out[c] += 1e-12
		break
	}
	if err := twinCheck(tm, []estimateOut{{q, out}}); err == nil {
		t.Error("perturbed estimate passed the twin check")
	}
}
