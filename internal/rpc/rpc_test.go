package rpc

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"mdrep/internal/fault"
)

type echoMsg struct {
	Text string `json:"text"`
}

// serveEcho runs an echo server on loopback, closed at test end.
func serveEcho(t *testing.T, wrap func(net.Conn) net.Conn) *Server {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, wrap, func(m echoMsg) echoMsg { return m })
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestServeRoundTripThroughWrap also covers the wrap hooks the peer
// exchange counts its wire bytes through, on both sides.
func TestServeRoundTripThroughWrap(t *testing.T) {
	var wraps atomic.Int32
	wrap := func(c net.Conn) net.Conn { wraps.Add(1); return c }
	s := serveEcho(t, wrap)
	var got echoMsg
	if err := Call(s.Addr(), wrap, echoMsg{Text: "hi"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.Text != "hi" || wraps.Load() != 2 {
		t.Fatalf("echo %+v after %d wraps, want hi after 2", got, wraps.Load())
	}
}

func TestCallTransportFailuresAreRetryable(t *testing.T) {
	s := serveEcho(t, nil)
	for _, tc := range []struct {
		addr string
		req  any
		want string
	}{
		{"127.0.0.1:1", echoMsg{}, "dial 127.0.0.1:1"},
		// A request that does not decode is closed unanswered.
		{s.Addr(), 42, "recv from " + s.Addr()},
	} {
		var resp echoMsg
		err := Call(tc.addr, nil, tc.req, &resp)
		if !fault.Retryable(err) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Call(%s, %v) = %v (retryable=%v), want a retryable %q", tc.addr, tc.req, err, fault.Retryable(err), tc.want)
		}
	}
}

func TestListenBusyAddressIsTerminal(t *testing.T) {
	s := serveEcho(t, nil)
	if _, err := Listen(s.Addr()); !fault.IsTerminal(err) {
		t.Fatalf("second bind of %s: %v, want a terminal error", s.Addr(), err)
	}
}
