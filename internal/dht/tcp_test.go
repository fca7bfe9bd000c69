package dht

import (
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

// startTCPRing launches n nodes on loopback TCP, joins them, and
// stabilises. It returns the nodes and a cleanup function.
func startTCPRing(t *testing.T, n int) []*Node {
	t.Helper()
	client := NewTCPClient()
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		cfg := DefaultNodeConfig()
		cfg.Storage = NewStorage(0, nil)
		srv, err := ServeTCPNode("127.0.0.1:0", client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		node := srv.Node()
		if i > 0 {
			if err := node.Join(nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, node)
	}
	for round := 0; round < 2*n+6; round++ {
		for _, node := range nodes {
			node.Stabilize()
		}
	}
	for _, node := range nodes {
		node.FixAllFingers()
	}
	return nodes
}

func TestTCPRingPublishRetrieve(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping TCP ring test in -short mode")
	}
	nodes := startTCPRing(t, 6)
	key := HashKey("tcp-file")
	if err := nodes[1].Publish([]StoredRecord{rec(key, "owner", 0.75, 1)}); err != nil {
		t.Fatal(err)
	}
	got, err := nodes[4].Retrieve(obs.SpanContext{}, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Info.Evaluation != 0.75 {
		t.Fatalf("retrieved %+v", got)
	}
}

func TestTCPRingLookupConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping TCP ring test in -short mode")
	}
	nodes := startTCPRing(t, 5)
	key := HashKey("consistency-check")
	want, err := nodes[0].Lookup(obs.SpanContext{}, key)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[1:] {
		got, err := n.Lookup(obs.SpanContext{}, key)
		if err != nil {
			t.Fatal(err)
		}
		if got.Addr != want.Addr {
			t.Fatalf("nodes disagree on owner of %v: %s vs %s", key, got.Addr, want.Addr)
		}
	}
}

func TestTCPSignedRecordVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping TCP ring test in -short mode")
	}
	owner, err := identity.Generate(identity.NewDeterministicReader(9))
	if err != nil {
		t.Fatal(err)
	}
	dir := identity.NewDirectory()
	if _, err := dir.Register(owner.PublicKey()); err != nil {
		t.Fatal(err)
	}
	client := NewTCPClient()
	cfg := NodeConfig{SuccessorListLen: 2, Storage: NewStorage(0, dir)}
	srv, err := ServeTCPNode("127.0.0.1:0", client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	node := srv.Node()

	info := eval.Info{FileID: "xyz", OwnerID: owner.ID(), Evaluation: 0.6, Timestamp: 3}
	if err := info.Sign(owner); err != nil {
		t.Fatal(err)
	}
	key := HashKey(string(info.FileID))
	// Store via real TCP round trip (signature survives JSON framing).
	if err := client.Store(obs.SpanContext{}, node.Self().Addr, []StoredRecord{{Key: key, Info: info}}, false); err != nil {
		t.Fatal(err)
	}
	got, err := client.Retrieve(obs.SpanContext{}, node.Self().Addr, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Info.Evaluation != 0.6 {
		t.Fatalf("retrieved %+v", got)
	}
	// A forged record must be dropped by the verifying store.
	forged := info
	forged.Timestamp = 99
	if err := client.Store(obs.SpanContext{}, node.Self().Addr, []StoredRecord{{Key: key, Info: forged}}, false); err != nil {
		t.Fatal(err)
	}
	got, err = client.Retrieve(obs.SpanContext{}, node.Self().Addr, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Info.Timestamp != 3 {
		t.Fatalf("forged record accepted over TCP: %+v", got)
	}
}

func TestTCPClientUnreachable(t *testing.T) {
	err := NewTCPClient().Ping(obs.SpanContext{}, "127.0.0.1:1")
	if err == nil {
		t.Fatal("ping to closed port succeeded")
	}
	if !fault.Retryable(err) || !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("dial failure %v: retryable=%v unreachable=%v, want both", err,
			fault.Retryable(err), errors.Is(err, ErrNodeUnreachable))
	}
}

// serveMemNode serves a node (whose own outbound client is an unused
// MemNet) on loopback TCP.
func serveMemNode(t *testing.T) *TCPNodeServer {
	t.Helper()
	srv, err := ServeTCPNode("127.0.0.1:0", NewMemNet(), DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func TestTCPServerRejectsUnknownMethod(t *testing.T) {
	srv := serveMemNode(t)
	_, err := NewTCPClient().call(obs.SpanContext{}, spanServe, srv.Addr(), wireRequest{Method: "bogus"})
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	// The server answered: its verdict is final, and a retry loop must
	// not spend attempts on it.
	if !fault.IsTerminal(err) || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("unknown method: %v (terminal=%v), want a terminal error frame", err, fault.IsTerminal(err))
	}
}

// TestTCPServerCloseWithIdleClient pins that Close cuts connections a
// client holds open without sending, instead of waiting out the serve
// deadline.
func TestTCPServerCloseWithIdleClient(t *testing.T) {
	srv := serveMemNode(t)
	idle, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = idle.Close() }()
	// Connections are accepted in order, so once this ping is answered
	// the idle connection is being served too.
	if err := NewTCPClient().Ping(obs.SpanContext{}, srv.Addr()); err != nil {
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

// TestTCPServerDropsHostileFrame pins that a frame header declaring more
// than wire.MaxFrame costs the sender its connection and nothing more:
// the next well-formed request is served.
func TestTCPServerDropsHostileFrame(t *testing.T) {
	srv := serveMemNode(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame(wire.MaxFrame+1, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read after hostile header: %v, want the server to hang up", err)
	}
	if err := NewTCPClient().Ping(obs.SpanContext{}, srv.Addr()); err != nil {
		t.Fatalf("ping after hostile frame: %v", err)
	}
}

// BenchmarkTCPPing is the per-RPC cost of the real transport: one dial,
// one request frame and one response frame over loopback. allocs/op and
// B/op are deterministic; ns/op depends on the host.
func BenchmarkTCPPing(b *testing.B) {
	srv, err := ServeTCPNode("127.0.0.1:0", NewMemNet(), DefaultNodeConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	c := NewTCPClient()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Ping(obs.SpanContext{}, srv.Addr()); err != nil {
			b.Fatal(err)
		}
	}
}
