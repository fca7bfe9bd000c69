package peer

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
	"mdrep/internal/obs"
	"mdrep/internal/wire"
)

// tcpTestnet builds two peers connected over real TCP exchange servers.
func tcpTestnet(t *testing.T) (alice, bob *Peer, resolver *StaticResolver) {
	t.Helper()
	dir := identity.NewDirectory()
	resolver = NewStaticResolver()
	network := NewTCPExchange(resolver)

	mk := func(seed uint64) *Peer {
		t.Helper()
		id, err := identity.Generate(identity.NewDeterministicReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.Register(id.PublicKey()); err != nil {
			t.Fatal(err)
		}
		p, err := New(id, dir, network, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ServeExchange("127.0.0.1:0", p.SignedEvaluations)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		resolver.Set(p.ID(), srv.Addr())
		return p
	}
	return mk(31), mk(32), resolver
}

func TestTCPExchangeSyncAndJudge(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP exchange test")
	}
	alice, bob, _ := tcpTestnet(t)
	alice.Vote("shared", 0.9)
	bob.Vote("shared", 0.88)
	n, err := alice.SyncPeer(bob.ID())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("synced %d entries over TCP", n)
	}
	if alice.TrustRow()[bob.ID()] <= 0 {
		t.Fatal("no trust after TCP sync")
	}
}

func TestTCPExchangeUnknownPeer(t *testing.T) {
	alice, _, _ := tcpTestnet(t)
	ghost, err := identity.Generate(identity.NewDeterministicReader(99))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.SyncPeer(ghost.ID()); err == nil {
		t.Fatal("sync with unresolvable peer succeeded")
	}
}

func TestTCPExchangeUnknownMethod(t *testing.T) {
	srv, err := ServeExchange("127.0.0.1:0", func() ([]eval.Info, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, exchangeRequest{Method: "bogus"}); err != nil {
		t.Fatal(err)
	}
	var resp exchangeResponse
	if err := wire.ReadFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "unknown method") {
		t.Fatalf("response: %+v", resp)
	}
}

func TestStaticResolver(t *testing.T) {
	r := NewStaticResolver()
	if _, err := r.Resolve("nobody"); err == nil {
		t.Fatal("unknown ID resolved")
	}
	r.Set("someone", "127.0.0.1:1234")
	addr, err := r.Resolve("someone")
	if err != nil || addr != "127.0.0.1:1234" {
		t.Fatalf("Resolve = %q, %v", addr, err)
	}
}

func TestTCPExchangeDialFailure(t *testing.T) {
	r := NewStaticResolver()
	r.Set("dead", "127.0.0.1:1")
	_, err := NewTCPExchange(r).FetchEvaluations(obs.SpanContext{}, "dead")
	if err == nil {
		t.Fatal("fetch from closed port succeeded")
	}
	if !fault.Retryable(err) {
		t.Fatalf("dial failure %v is not retryable", err)
	}
}

// serveStatic serves a fixed evaluation source on loopback and resolves
// the peer "static" to it.
func serveStatic(t *testing.T, source func() ([]eval.Info, error)) (*ExchangeServer, *TCPExchange) {
	t.Helper()
	srv, err := ServeExchange("127.0.0.1:0", source)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	r := NewStaticResolver()
	r.Set("static", srv.Addr())
	return srv, NewTCPExchange(r)
}

func TestTCPExchangeSourceErrorIsTerminal(t *testing.T) {
	_, x := serveStatic(t, func() ([]eval.Info, error) { return nil, errors.New("signing key unavailable") })
	_, err := x.FetchEvaluations(obs.SpanContext{}, "static")
	if err == nil {
		t.Fatal("fetch succeeded against a failing source")
	}
	if !fault.IsTerminal(err) || !strings.Contains(err.Error(), "signing key unavailable") {
		t.Fatalf("source failure: %v (terminal=%v), want a terminal error frame", err, fault.IsTerminal(err))
	}
}

// TestExchangeServerCloseWithIdleClient pins that Close cuts connections
// a client holds open without sending, instead of waiting out the serve
// deadline.
func TestExchangeServerCloseWithIdleClient(t *testing.T) {
	srv, x := serveStatic(t, func() ([]eval.Info, error) { return nil, nil })
	idle, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = idle.Close() }()
	// Connections are accepted in order, so once this fetch is answered
	// the idle connection is being served too.
	if _, err := x.FetchEvaluations(obs.SpanContext{}, "static"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Close took %v with an idle client connected", took)
	}
}

// TestExchangeServerDropsHostileFrame pins that a frame header declaring
// more than wire.MaxFrame costs the sender its connection and nothing
// more: the next well-formed request is served.
func TestExchangeServerDropsHostileFrame(t *testing.T) {
	srv, x := serveStatic(t, func() ([]eval.Info, error) { return nil, nil })
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], wire.MaxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read after hostile header: %v, want the server to hang up", err)
	}
	if _, err := x.FetchEvaluations(obs.SpanContext{}, "static"); err != nil {
		t.Fatalf("fetch after hostile frame: %v", err)
	}
}
