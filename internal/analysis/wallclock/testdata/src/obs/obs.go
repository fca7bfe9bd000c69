// Stub of mdrep/internal/obs for the wallclock fixtures: the same
// surface (Clock, WallClock, Span, Timed) under the bare import path
// "obs", which lintutil.IsPackage matches like the real one.
package obs

import "time"

type Clock func() time.Time

func WallClock() time.Time { return time.Now() }

type Span struct {
	clock Clock
	start time.Time
}

func Timed(clock Clock) Span {
	if clock == nil {
		return Span{}
	}
	return Span{clock: clock, start: clock()}
}

func (s *Span) End() time.Duration {
	if s.clock == nil {
		return 0
	}
	return s.clock().Sub(s.start)
}
