package dht

import (
	"mdrep/internal/fault"
	"mdrep/internal/obs"
)

// Client is the RPC surface a node uses to talk to other nodes. The
// in-memory network and the TCP transport both implement it; the node
// logic is transport-agnostic. Every call takes the caller's span
// context first: transports open one RPC span per call under it and
// propagate it across the wire, which is how a walk estimate's DHT hops
// stitch into one trace. Callers without a trace pass the zero
// obs.SpanContext — the transport then roots a trace of its own, so
// maintenance traffic still reaches the flight recorder.
type Client interface {
	// FindSuccessor asks the node at addr for the successor of id.
	FindSuccessor(sc obs.SpanContext, addr string, id ID) (NodeRef, error)
	// Successors returns the successor list of the node at addr.
	Successors(sc obs.SpanContext, addr string) ([]NodeRef, error)
	// Predecessor returns the predecessor of the node at addr; ok is
	// false when unset.
	Predecessor(sc obs.SpanContext, addr string) (NodeRef, bool, error)
	// Notify tells the node at addr that self may be its predecessor.
	Notify(sc obs.SpanContext, addr string, self NodeRef) error
	// Ping checks liveness.
	Ping(sc obs.SpanContext, addr string) error
	// Store writes records to the node at addr. When replicate is true
	// the receiving node forwards copies to its successor list.
	Store(sc obs.SpanContext, addr string, recs []StoredRecord, replicate bool) error
	// Retrieve reads the records stored under key at addr.
	Retrieve(sc obs.SpanContext, addr string, key ID) ([]StoredRecord, error)
}

// unreachableError is the concrete type behind ErrNodeUnreachable. It
// classifies as fault.ErrUnreachable so retry loops and the peer
// exchange share one taxonomy without changing this sentinel's text;
// callers (today only tests) may still check errors.Is(err,
// ErrNodeUnreachable).
type unreachableError struct{}

func (unreachableError) Error() string { return "dht: node unreachable" }

func (unreachableError) Is(target error) bool { return target == fault.ErrUnreachable }

// ErrNodeUnreachable is returned by transports when the remote node is
// gone; the caller routes around it via the successor list. It is
// retryable under the internal/fault taxonomy.
var ErrNodeUnreachable error = unreachableError{}

// handler is the server-side surface; *Node implements it, and both
// transports dispatch inbound requests through it. The methods that can
// fan out further RPCs (lookup forwarding, store replication) receive
// the inbound span context so the continuation stays on the caller's
// trace.
type handler interface {
	HandleFindSuccessor(sc obs.SpanContext, id ID) (NodeRef, error)
	HandleSuccessors() []NodeRef
	HandlePredecessor() (NodeRef, bool)
	HandleNotify(candidate NodeRef)
	HandleStore(sc obs.SpanContext, recs []StoredRecord, replicate bool)
	HandleRetrieve(key ID) []StoredRecord
}
