// Positive fixture for the observability rules: package path "sparse"
// is in wallclock's deterministic set. Instrumentation must take its
// clock by injection; reading the wall clock inside a span, or binding
// obs.WallClock to an observer, is flagged.
package sparse

import (
	"obs"
	"time"
)

type kernelObs struct {
	clock obs.Clock
}

// instrumentSelf wires the ambient clock into the package's own observer —
// exactly the uncalled-reference form the analyzer must catch.
func instrumentSelf() *kernelObs {
	return &kernelObs{clock: obs.WallClock} // want `obs\.WallClock binds the ambient clock`
}

// badSpan reads the raw wall clock inside an open span instead of
// letting the span's injected clock measure the work.
func badSpan(k *kernelObs) time.Duration {
	sp := obs.Timed(k.clock)
	start := time.Now() // want `time\.Now reads the wall clock`
	work()
	_ = sp.End()
	return time.Since(start) // want `time\.Since reads the wall clock`
}

// goodSpan is the sanctioned shape: the clock arrived by injection when
// the observer was built, and the span alone reads it.
func goodSpan(k *kernelObs) time.Duration {
	sp := obs.Timed(k.clock)
	work()
	return sp.End()
}

// instrument is the sanctioned constructor: the caller chooses the clock.
func instrument(clock obs.Clock) *kernelObs {
	return &kernelObs{clock: clock}
}

func work() {}
