package peer

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
	"mdrep/internal/obs"
	"mdrep/internal/wire"
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

// TCPExchange implements Network over TCP.
type TCPExchange struct {
	resolver Resolver
	// DialTimeout and CallTimeout bound each fetch.
	DialTimeout, CallTimeout time.Duration

	obs ExchangeObs
}

// Instrument counts fetches and wire bytes into o; nil detaches. Call
// before the exchange is shared across goroutines.
func (e *TCPExchange) Instrument(o *ExchangeObs) {
	e.obs = ExchangeObs{}
	if o != nil {
		e.obs = *o
	}
}

// NewTCPExchange returns a client with 2s dial and 5s call timeouts.
func NewTCPExchange(resolver Resolver) *TCPExchange {
	return &TCPExchange{resolver: resolver, DialTimeout: 2 * time.Second, CallTimeout: 5 * time.Second}
}

// FetchEvaluations implements Network.
func (e *TCPExchange) FetchEvaluations(sc obs.SpanContext, target identity.PeerID) (infos []eval.Info, err error) {
	sp := obs.StartSpan(sc, spanFetch)
	sp.AttrStr(attrTarget, string(target))
	defer func() { sp.EndErr(err) }()
	addr, err := e.resolver.Resolve(target)
	if err != nil {
		return nil, err
	}
	raw, err := net.DialTimeout("tcp", addr, e.DialTimeout)
	if err != nil {
		// Transport failures are tagged retryable (fault.ErrUnreachable);
		// an explicit error frame from the peer below stays terminal.
		return nil, fault.Unreachable(fmt.Errorf("peer: dial %s (%s): %w", target, addr, err))
	}
	defer func() { _ = raw.Close() }()
	e.obs.fetches.Inc()
	conn := countingConn{Conn: raw, in: e.obs.bytesIn, out: e.obs.bytesOut}
	if err := conn.SetDeadline(time.Now().Add(e.CallTimeout)); err != nil { //mdrep:allow wallclock: I/O deadline on a live socket, not replayed state
		return nil, err
	}
	if err := wire.WriteFrame(conn, exchangeRequest{Method: "evaluations", Trace: sp.Context().MarshalWire()}); err != nil {
		return nil, fault.Unreachable(fmt.Errorf("peer: send to %s: %w", target, err))
	}
	var resp exchangeResponse
	if err := wire.ReadFrame(conn, &resp); err != nil {
		return nil, fault.Unreachable(fmt.Errorf("peer: recv from %s: %w", target, err))
	}
	if resp.Error != "" {
		return nil, fault.Terminal(fmt.Errorf("peer: %s: %s", target, resp.Error))
	}
	return resp.Evaluations, nil
}

var _ Network = (*TCPExchange)(nil)

// ExchangeServer serves one peer's evaluation list over TCP.
type ExchangeServer struct {
	listener net.Listener
	source   func() ([]eval.Info, error)

	mu      sync.Mutex
	obs     ExchangeObs
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fault.Terminal(fmt.Errorf("peer: listen %s: %w", addr, err))
	}
	s := &ExchangeServer{listener: ln, source: source, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *ExchangeServer) Addr() string { return s.listener.Addr().String() }

// Close stops the listener and waits for in-flight requests.
func (s *ExchangeServer) Close() error {
	s.mu.Lock()
	s.closing = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	err := s.listener.Close()
	s.wg.Wait()
	return err
}

func (s *ExchangeServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *ExchangeServer) serveConn(raw net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, raw)
		s.mu.Unlock()
		_ = raw.Close()
	}()
	_ = raw.SetDeadline(time.Now().Add(10 * time.Second)) //mdrep:allow wallclock: I/O deadline on a live socket, not replayed state
	s.mu.Lock()
	o := s.obs
	s.mu.Unlock()
	o.serves.Inc()
	conn := countingConn{Conn: raw, in: o.bytesIn, out: o.bytesOut}
	var req exchangeRequest
	if err := wire.ReadFrame(conn, &req); err != nil {
		return
	}
	sp := obs.StartSpan(obs.SpanContextFromWire(req.Trace), spanServe)
	if req.Method != "evaluations" {
		sp.EndErr(fmt.Errorf("unknown method %q", req.Method)) //mdrep:allow faultwrap: feeds the serve span's status only, never returned to a retry loop
		_ = wire.WriteFrame(conn, exchangeResponse{Error: fmt.Sprintf("unknown method %q", req.Method)})
		return
	}
	infos, err := s.source()
	if err != nil {
		sp.EndErr(err)
		_ = wire.WriteFrame(conn, exchangeResponse{Error: err.Error()})
		return
	}
	sp.End()
	_ = wire.WriteFrame(conn, exchangeResponse{Evaluations: infos})
}
