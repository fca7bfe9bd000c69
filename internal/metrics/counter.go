package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing, concurrency-safe event counter.
// The resilience layer threads counters through its decorators (retries,
// injected drops, local-view fallbacks) so tests and operators can assert
// on what the transport actually did, not just its end result. A nil
// *Counter is a disabled handle: updates are no-ops and Load returns 0,
// so a disabled observer is just one whose handles are nil.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//mdrep:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
//
//mdrep:hotpath
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// FormatCounters renders a name→count map as a stable, sorted one-line
// summary ("drops=3 retries=7"), for logs and test failure messages.
func FormatCounters(counts map[string]uint64) string {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, counts[name]))
	}
	return strings.Join(parts, " ")
}
