// Positive fixture: package path "rpc" (the shared TCP transport) is in
// wallclock's set, so a socket deadline needs its suppression.
package rpc

import "time"

type conn interface {
	SetDeadline(time.Time) error
}

func deadline(c conn, d time.Duration) error {
	return c.SetDeadline(time.Now().Add(d)) // want `time\.Now reads the wall clock`
}
