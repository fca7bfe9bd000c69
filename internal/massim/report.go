package massim

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ClassStats summarises one behavioural class at the end of a run.
type ClassStats struct {
	Name      string
	Count     int
	Adversary bool
	// MeanRep and MeanCred are the final-epoch class means.
	MeanRep, MeanCred float64
	// Got counts serviced downloads by members; Denied refused requests;
	// FakeGot fake downloads; PollGot / PollFake downloads (and fake
	// downloads) on contested titles.
	Got, Denied, FakeGot, PollGot, PollFake uint64
	// PollFakeRatio = PollFake / PollGot: how often the class's members
	// ended up with the fake when the title was contested.
	PollFakeRatio float64
	// Tiers is the multitier distribution of the class (tier 1 first).
	Tiers []int
}

// Result is a completed run's summary.
type Result struct {
	Scenario string
	N        int
	Seed     uint64
	Epochs   int
	// Events counts wheel pops; Misses requests with no available
	// server; Rejoins whitewash identity resets.
	Events, Misses, Rejoins uint64
	Classes                 []ClassStats
	// RepTrajectory[e][k] is class k's mean reputation after epoch e.
	RepTrajectory [][]float64
	// CoopFrac is the fraction of strategic-class peers cooperating at
	// the end (NaN when the scenario has no strategic class).
	CoopFrac float64
	// Baselines holds the comparison estimators when enabled.
	Baselines *BaselineResult
	// Verdict is the scenario's pass/fail judgement.
	Verdict Verdict
}

// Class returns the stats for the named class, or nil.
func (r *Result) Class(name string) *ClassStats {
	for k := range r.Classes {
		if r.Classes[k].Name == name {
			return &r.Classes[k]
		}
	}
	return nil
}

// FinalRep returns the named class's final mean reputation (NaN when
// the class is unknown).
func (r *Result) FinalRep(name string) float64 {
	if c := r.Class(name); c != nil {
		return c.MeanRep
	}
	return math.NaN()
}

// Finish summarises a completed run. It errors if the run has not been
// stepped to completion.
func (s *Sim) Finish() (*Result, error) {
	if !s.done {
		return nil, errors.New("massim: Finish before the run completed")
	}
	r := &Result{
		Scenario:      s.scn.Name(),
		N:             s.cfg.N,
		Seed:          s.cfg.Seed,
		Epochs:        s.epochsDone,
		Events:        s.wheel.Executed,
		Misses:        s.misses,
		Rejoins:       s.rejoins,
		RepTrajectory: s.perEpochRep,
		CoopFrac:      math.NaN(),
	}
	tiers := s.tierClassifier()
	for k, sp := range s.specs {
		lo, hi := int(s.start[k]), int(s.start[k+1])
		cs := ClassStats{
			Name:      sp.Name,
			Count:     hi - lo,
			Adversary: sp.Adversary,
			Got:       s.got[k],
			Denied:    s.denied[k],
			FakeGot:   s.fakeGot[k],
			PollGot:   s.pollGot[k],
			PollFake:  s.pollFake[k],
		}
		var rep, cred float64
		for j := lo; j < hi; j++ {
			rep += s.rep[j]
			cred += s.cred[j]
		}
		cs.MeanRep = rep / float64(cs.Count)
		cs.MeanCred = cred / float64(cs.Count)
		if cs.PollGot > 0 {
			cs.PollFakeRatio = float64(cs.PollFake) / float64(cs.PollGot)
		}
		if tiers != nil {
			cs.Tiers = tiers.Distribution(s.rep[lo:hi])
		}
		if sp.Name == "strategic" {
			coop := 0
			for j := lo; j < hi; j++ {
				if s.mode[j] == modeCoop {
					coop++
				}
			}
			r.CoopFrac = float64(coop) / float64(cs.Count)
		}
		r.Classes = append(r.Classes, cs)
	}
	if s.log != nil {
		b, err := s.runBaselines()
		if err != nil {
			return nil, err
		}
		r.Baselines = b
	}
	r.Verdict = s.scn.Verdict(r)
	if r.Verdict.Pass {
		s.obs.passC.Inc()
	} else {
		s.obs.failC.Inc()
	}
	return r, nil
}

// Render returns the deterministic textual report: byte-identical
// output across reruns of the same (scenario, seed, n) is the
// reproducibility contract the CI sim job asserts.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "massim scenario=%s n=%d seed=%d epochs=%d events=%d misses=%d rejoins=%d\n",
		r.Scenario, r.N, r.Seed, r.Epochs, r.Events, r.Misses, r.Rejoins)
	for _, c := range r.Classes {
		role := "honest"
		if c.Adversary {
			role = "adversary"
		}
		fmt.Fprintf(&b, "  class %-12s %-9s count=%-7d rep=%.6f cred=%.6f got=%d denied=%d fake=%d pollFakeRatio=%.6f",
			c.Name, role, c.Count, c.MeanRep, c.MeanCred, c.Got, c.Denied, c.FakeGot, c.PollFakeRatio)
		if len(c.Tiers) > 0 {
			fmt.Fprintf(&b, " tiers=%v", c.Tiers)
		}
		b.WriteByte('\n')
	}
	if !math.IsNaN(r.CoopFrac) {
		fmt.Fprintf(&b, "  coopFrac=%.6f\n", r.CoopFrac)
	}
	for e, row := range r.RepTrajectory {
		fmt.Fprintf(&b, "  epoch %2d rep=[", e+1)
		for k, v := range row {
			if k > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.6f", v)
		}
		b.WriteString("]\n")
	}
	if r.Baselines != nil {
		b.WriteString(r.Baselines.render())
	}
	v := r.Verdict
	status := "FAIL"
	if v.Pass {
		status = "PASS"
	}
	fmt.Fprintf(&b, "  verdict %s: %s = %.6f (bound %s %.6f)", status, v.Metric, v.Value, v.Op, v.Bound)
	if v.Notes != "" {
		fmt.Fprintf(&b, " [%s]", v.Notes)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  fingerprint=%016x\n", r.Fingerprint())
	return b.String()
}

// Fingerprint folds the result's numerically sensitive content into an
// FNV-1a hash — the compact form of the byte-identity check.
func (r *Result) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(r.N))
	mix(r.Seed)
	mix(r.Events)
	mix(r.Misses)
	mix(r.Rejoins)
	for _, c := range r.Classes {
		mix(math.Float64bits(c.MeanRep))
		mix(math.Float64bits(c.MeanCred))
		mix(c.Got)
		mix(c.Denied)
		mix(c.FakeGot)
		mix(c.PollFake)
	}
	for _, row := range r.RepTrajectory {
		for _, v := range row {
			mix(math.Float64bits(v))
		}
	}
	return h
}
