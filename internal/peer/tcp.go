package peer

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
	"mdrep/internal/obs"
	"mdrep/internal/rpc"
)

// The TCP exchange lets participants fetch each other's signed evaluation
// lists over the network (§4.1 step 4). The protocol is a single
// request/response per connection using internal/wire framing:
//
//	→ {"method":"evaluations"}
//	← {"evaluations":[EvaluationInfo…]} | {"error":"…"}
//
// Addresses are resolved through a Resolver (peer ID → host:port); in a
// deployment this mapping rides on the DHT like any other record.

type exchangeRequest struct {
	Method string `json:"method"`
	Trace  []byte `json:"trace,omitempty"`
}

type exchangeResponse struct {
	Error       string      `json:"error,omitempty"`
	Evaluations []eval.Info `json:"evaluations,omitempty"`
}

// Resolver maps peer IDs to transport addresses.
type Resolver interface {
	// Resolve returns the host:port serving the peer's evaluation list.
	Resolve(id identity.PeerID) (string, error)
}

// StaticResolver is a fixed ID → address table.
type StaticResolver struct {
	mu    sync.RWMutex
	addrs map[identity.PeerID]string
}

// NewStaticResolver returns an empty resolver.
func NewStaticResolver() *StaticResolver {
	return &StaticResolver{addrs: make(map[identity.PeerID]string)}
}

// Set binds an ID to an address.
func (r *StaticResolver) Set(id identity.PeerID, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addrs[id] = addr
}

// Resolve implements Resolver.
func (r *StaticResolver) Resolve(id identity.PeerID) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	addr, ok := r.addrs[id]
	if !ok {
		return "", fault.Unreachable(fmt.Errorf("peer: no address for %s", id))
	}
	return addr, nil
}

var _ Resolver = (*StaticResolver)(nil)

// TCPExchange implements Network over TCP, with internal/rpc's 2 s dial
// and 5 s call timeouts.
type TCPExchange struct {
	resolver Resolver
	obs      ExchangeObs
}

// Instrument counts fetches and wire bytes into o; nil detaches. Call
// before the exchange is shared across goroutines.
func (e *TCPExchange) Instrument(o *ExchangeObs) {
	e.obs = ExchangeObs{}
	if o != nil {
		e.obs = *o
	}
}

// NewTCPExchange returns a client resolving peers through resolver.
func NewTCPExchange(resolver Resolver) *TCPExchange {
	return &TCPExchange{resolver: resolver}
}

// FetchEvaluations implements Network. Transport failures are tagged
// retryable (fault.ErrUnreachable); an error frame from the peer is
// terminal.
func (e *TCPExchange) FetchEvaluations(sc obs.SpanContext, target identity.PeerID) (infos []eval.Info, err error) {
	sp := obs.StartSpan(sc, spanFetch)
	sp.AttrStr(attrTarget, string(target))
	defer func() { sp.EndErr(err) }()
	addr, err := e.resolver.Resolve(target)
	if err != nil {
		return nil, err
	}
	count := func(raw net.Conn) net.Conn {
		e.obs.fetches.Inc()
		return countingConn{Conn: raw, in: e.obs.bytesIn, out: e.obs.bytesOut}
	}
	var resp exchangeResponse
	req := exchangeRequest{Method: "evaluations", Trace: sp.Context().MarshalWire()}
	if err := rpc.Call(addr, count, req, &resp); err != nil {
		return nil, fmt.Errorf("peer: %s: %w", target, err)
	}
	if resp.Error != "" {
		return nil, fault.Terminal(fmt.Errorf("peer: %s: %s", target, resp.Error))
	}
	return resp.Evaluations, nil
}

var _ Network = (*TCPExchange)(nil)

// ExchangeServer serves one peer's evaluation list over TCP.
type ExchangeServer struct {
	srv    *rpc.Server
	source func() ([]eval.Info, error)

	mu  sync.Mutex
	obs ExchangeObs
}

// Instrument counts served requests and wire bytes into o. Connections
// already in flight keep their uninstrumented view.
func (s *ExchangeServer) Instrument(o *ExchangeObs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = ExchangeObs{}
	if o != nil {
		s.obs = *o
	}
}

// ServeExchange listens on addr (":0" for ephemeral) and serves the
// evaluation list produced by source — typically (*Peer).SignedEvaluations.
func ServeExchange(addr string, source func() ([]eval.Info, error)) (*ExchangeServer, error) {
	ln, err := rpc.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("peer: %w", err)
	}
	s := &ExchangeServer{source: source}
	s.srv = rpc.Serve(ln, s.count, s.serve)
	return s, nil
}

// Addr returns the bound listen address.
func (s *ExchangeServer) Addr() string { return s.srv.Addr() }

// Close stops the listener and waits for in-flight requests.
func (s *ExchangeServer) Close() error { return s.srv.Close() }

// count snapshots the observer for one connection, counts the serve and
// tallies the connection's wire bytes.
func (s *ExchangeServer) count(raw net.Conn) net.Conn {
	s.mu.Lock()
	o := s.obs
	s.mu.Unlock()
	o.serves.Inc()
	return countingConn{Conn: raw, in: o.bytesIn, out: o.bytesOut}
}

// serve answers one request inside its serve span.
func (s *ExchangeServer) serve(req exchangeRequest) exchangeResponse {
	sp := obs.StartSpan(obs.SpanContextFromWire(req.Trace), spanServe)
	if req.Method != "evaluations" {
		msg := fmt.Sprintf("unknown method %q", req.Method)
		sp.EndErr(errors.New(msg)) //mdrep:allow faultwrap: feeds the serve span's status only, never returned to a retry loop
		return exchangeResponse{Error: msg}
	}
	infos, err := s.source()
	if err != nil {
		sp.EndErr(err)
		return exchangeResponse{Error: err.Error()}
	}
	sp.End()
	return exchangeResponse{Evaluations: infos}
}
