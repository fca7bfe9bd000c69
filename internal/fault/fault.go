// Package fault is the error taxonomy shared by the networked layers
// (internal/dht's RPC transports and internal/peer's evaluation
// exchange): it classifies failures into *transient* conditions a caller
// should retry — a peer that crashed, a dropped message, an expired
// deadline — and *terminal* conditions that retrying cannot fix — a
// malformed request, a forged signature, an unknown method.
//
// The taxonomy is deliberately sentinel-based so it composes with
// fmt.Errorf("%w") wrapping across package boundaries: a transport tags
// the root cause with Unreachable or Timeout (or returns an error whose
// chain contains ErrUnreachable/ErrTimeout), and retry loops ask only
// Retryable(err). A handler that wants to stop a retry loop around a
// normally-transient path pins the error with Terminal.
package fault

import "errors"

// ErrUnreachable marks a peer that cannot be reached right now: the
// process is gone, the message was lost, or routing has a transient hole.
// Retrying — ideally against a different replica — is the correct
// response.
var ErrUnreachable = errors.New("fault: peer unreachable")

// ErrTimeout marks an operation that exceeded its per-op budget. The
// work may or may not have happened remotely; the operations in this
// system are idempotent (stores merge by owner+timestamp), so retrying
// is safe.
var ErrTimeout = errors.New("fault: operation timed out")

// taggedError attaches a taxonomy sentinel to a root cause without
// changing the error text. Both the cause and the sentinel are visible
// to errors.Is / errors.As through multi-target Unwrap.
type taggedError struct {
	err  error
	kind error
}

func (t *taggedError) Error() string { return t.err.Error() }

func (t *taggedError) Unwrap() []error { return []error{t.err, t.kind} }

// Unreachable tags err as a transient reachability failure. A nil err
// returns ErrUnreachable itself.
func Unreachable(err error) error {
	if err == nil {
		return ErrUnreachable
	}
	return &taggedError{err: err, kind: ErrUnreachable}
}

// Timeout tags err as a per-op timeout. A nil err returns ErrTimeout
// itself.
func Timeout(err error) error {
	if err == nil {
		return ErrTimeout
	}
	return &taggedError{err: err, kind: ErrTimeout}
}

// terminalError pins an error as non-retryable regardless of what its
// chain would otherwise classify as.
type terminalError struct {
	err error
}

func (t *terminalError) Error() string { return t.err.Error() }

func (t *terminalError) Unwrap() error { return t.err }

// Terminal wraps err so Retryable reports false even if the underlying
// chain carries a transient sentinel. Wrapping nil returns nil.
func Terminal(err error) error {
	if err == nil {
		return nil
	}
	return &terminalError{err: err}
}

// IsTerminal reports whether err was pinned with Terminal. The nil
// check comes first: errors.As moves its target to the heap, and every
// successful span end asks.
func IsTerminal(err error) bool {
	if err == nil {
		return false
	}
	var t *terminalError
	return errors.As(err, &t)
}

// Retryable reports whether err is worth retrying: its chain carries
// ErrUnreachable or ErrTimeout and no Terminal pin. nil is not
// retryable.
func Retryable(err error) bool {
	if err == nil || IsTerminal(err) {
		return false
	}
	return errors.Is(err, ErrUnreachable) || errors.Is(err, ErrTimeout)
}
