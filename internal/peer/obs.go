package peer

import (
	"net"

	"mdrep/internal/metrics"
)

// ExchangeObs counts evaluation-exchange traffic: bytes on the wire in
// each direction plus fetch/serve call counts. One observer can be
// shared by the TCP client and server of a process so the exported
// series cover all exchange traffic. The zero ExchangeObs, which
// Instrument(nil) attaches, has nil (no-op) handles.
type ExchangeObs struct {
	bytesIn  *metrics.Counter // peer_exchange_bytes_total{dir="in"}
	bytesOut *metrics.Counter // peer_exchange_bytes_total{dir="out"}
	fetches  *metrics.Counter // peer_exchange_fetches_total
	serves   *metrics.Counter // peer_exchange_serves_total
}

// NewExchangeObs registers the exchange metric families in reg. A nil
// registry returns a nil (disabled) observer.
func NewExchangeObs(reg *metrics.Registry) *ExchangeObs {
	if reg == nil {
		return nil
	}
	return &ExchangeObs{
		bytesIn:  reg.Counter("peer_exchange_bytes_total", "dir", "in"),
		bytesOut: reg.Counter("peer_exchange_bytes_total", "dir", "out"),
		fetches:  reg.Counter("peer_exchange_fetches_total"),
		serves:   reg.Counter("peer_exchange_serves_total"),
	}
}

// countingConn tallies wire traffic around an inner net.Conn.
type countingConn struct {
	net.Conn
	in, out *metrics.Counter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}
