// Package rpc is the TCP transport of the DHT and of the peer evaluation
// exchange: one internal/wire request frame and one response frame per
// connection. The protocols themselves (message types, dispatch, spans)
// stay with their packages.
package rpc

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mdrep/internal/fault"
	"mdrep/internal/wire"
)

// A client's dial and whole call, and a server's hold on one connection,
// are bounded.
const (
	dialTimeout  = 2 * time.Second
	callTimeout  = 5 * time.Second
	serveTimeout = 10 * time.Second
)

// deadline bounds all further I/O on conn to d from now. A connection
// that refuses a deadline is closed, and its next read or write fails.
func deadline(conn net.Conn, d time.Duration) {
	_ = conn.SetDeadline(time.Now().Add(d)) //mdrep:allow wallclock: I/O deadline on a live socket, not replayed state
}

// Call dials addr, writes req as one frame and reads one frame into
// resp. Dial, send and receive failures are tagged fault.Unreachable; an
// error the server reports inside resp is the caller's to classify.
// wrap, when non-nil, is applied to the connection before any byte moves.
func Call(addr string, wrap func(net.Conn) net.Conn, req, resp any) error {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return fault.Unreachable(fmt.Errorf("dial %s: %w", addr, err))
	}
	defer func() { _ = conn.Close() }()
	if wrap != nil {
		conn = wrap(conn)
	}
	deadline(conn, callTimeout)
	if err := wire.WriteFrame(conn, req); err != nil {
		return fault.Unreachable(fmt.Errorf("send to %s: %w", addr, err))
	}
	if err := wire.ReadFrame(conn, resp); err != nil {
		return fault.Unreachable(fmt.Errorf("recv from %s: %w", addr, err))
	}
	return nil
}

// Listen binds addr (":0" for an ephemeral port) without serving yet, so
// the caller can derive its identity from the bound address first.
func Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fault.Terminal(fmt.Errorf("listen %s: %w", addr, err))
	}
	return ln, nil
}

// Server accepts connections from its listener and answers each.
type Server struct {
	ln     net.Listener
	handle func(net.Conn)

	mu    sync.Mutex
	conns map[net.Conn]struct{} // live connections; nil once Close began
	wg    sync.WaitGroup
}

// Serve starts accepting on ln. Each connection, under the serve
// deadline and through wrap when non-nil, gets one request frame
// decoded into a Req, handle's answer written back as one frame, and is
// closed. A connection whose request does not decode is closed
// unanswered. The caller must Close.
func Serve[Req, Resp any](ln net.Listener, wrap func(net.Conn) net.Conn, handle func(Req) Resp) *Server {
	s := &Server{ln: ln, conns: make(map[net.Conn]struct{})}
	s.handle = func(conn net.Conn) {
		if wrap != nil {
			conn = wrap(conn)
		}
		var req Req
		if wire.ReadFrame(conn, &req) == nil {
			_ = wire.WriteFrame(conn, handle(req))
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes the live connections, then waits for
// their goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.conns == nil {
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

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	deadline(conn, serveTimeout)
	s.handle(conn)
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
}
