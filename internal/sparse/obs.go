package sparse

import (
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

// Kernel instrumentation. The kernels are package-level functions with
// no construction point to thread an observer through, so the observer
// is an atomically installed package singleton: Instrument publishes it,
// uninstrumented processes pay one atomic pointer load per kernel call
// (not per row) and then call the zero observer's nil, no-op handles.
// Counters accumulate per row block and are flushed once per block,
// keeping the inner FMA loops untouched — instrumentation must not move
// the BuildTM benchmarks.
type kernelObs struct {
	clock  obs.Clock
	freeze *metrics.Histogram // FreezeNormalized wall time
	mul    *metrics.Histogram // one CSR·CSR product
	step   *metrics.Histogram // one RowVecPow power-iteration step
	rows   *metrics.Counter   // output rows computed across kernels
	nnz    *metrics.Counter   // nonzero products processed
}

var kobs obs.Slot[kernelObs]

// Instrument publishes kernel metrics into reg, timed by clock. Passing
// a nil registry (or Uninstrument) turns instrumentation back off.
func Instrument(reg *metrics.Registry, clock obs.Clock) {
	if reg == nil {
		kobs.Store(nil)
		return
	}
	kobs.Store(&kernelObs{
		clock:  clock,
		freeze: reg.Histogram("sparse_freeze_seconds", metrics.DurationBuckets),
		mul:    reg.Histogram("sparse_mul_seconds", metrics.DurationBuckets),
		step:   reg.Histogram("sparse_rowvecpow_step_seconds", metrics.DurationBuckets),
		rows:   reg.Counter("sparse_rows_total"),
		nnz:    reg.Counter("sparse_nnz_total"),
	})
}

// Uninstrument disables kernel instrumentation.
func Uninstrument() { kobs.Store(nil) }
