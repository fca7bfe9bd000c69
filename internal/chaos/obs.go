package chaos

import "mdrep/internal/metrics"

// chaosExport mirrors the injector's value Counters onto a shared
// registry as chaos_faults_total{kind=...}. The value Counters stay the
// independent ground truth: both tallies are bumped at the same sites,
// so an exporter bug shows up as a divergence between the two (the
// harness tests assert exact equality after a seeded run). The zero
// chaosExport, an uninstrumented injector's, has nil (no-op) handles.
type chaosExport struct {
	requestDrops    *metrics.Counter
	replyDrops      *metrics.Counter
	dups            *metrics.Counter
	deferred        *metrics.Counter
	partitionBlocks *metrics.Counter
	timeouts        *metrics.Counter
	crashBlocks     *metrics.Counter
}

// Instrument mirrors every delivered fault into reg as
// chaos_faults_total{kind=...}; kind values match Counters.Snapshot
// keys. Call before the injector starts carrying traffic.
func (c *Chaos) Instrument(reg *metrics.Registry, labels ...string) {
	if reg == nil {
		return
	}
	kind := func(v string) *metrics.Counter {
		return reg.Counter("chaos_faults_total", append([]string{"kind", v}, labels...)...)
	}
	c.exp = chaosExport{
		requestDrops:    kind("request_drops"),
		replyDrops:      kind("reply_drops"),
		dups:            kind("dups"),
		deferred:        kind("deferred"),
		partitionBlocks: kind("partition_blocks"),
		timeouts:        kind("timeouts"),
		crashBlocks:     kind("crash_blocks"),
	}
}
