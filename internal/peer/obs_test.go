package peer

import (
	"testing"

	"mdrep/internal/eval"
	"mdrep/internal/identity"
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
)

func TestExchangeByteCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP exchange test")
	}
	dir := identity.NewDirectory()
	resolver := NewStaticResolver()
	network := NewTCPExchange(resolver)
	reg := metrics.NewRegistry()
	xobs := NewExchangeObs(reg)
	network.Instrument(xobs)

	id, err := identity.Generate(identity.NewDeterministicReader(41))
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
	p.Vote("counted-file", 0.75)
	srv, err := ServeExchange("127.0.0.1:0", p.SignedEvaluations)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	srv.Instrument(xobs)
	resolver.Set(p.ID(), srv.Addr())

	infos, err := network.FetchEvaluations(obs.SpanContext{}, p.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("fetched %d evaluations, want 1", len(infos))
	}

	in := reg.Counter("peer_exchange_bytes_total", "dir", "in").Load()
	out := reg.Counter("peer_exchange_bytes_total", "dir", "out").Load()
	if in == 0 || out == 0 {
		t.Fatalf("byte counters not moving: in=%d out=%d", in, out)
	}
	// Client and server share the observer, so both directions see the
	// request and the response; the totals must match exactly.
	if in != out {
		t.Fatalf("in=%d != out=%d with a shared observer", in, out)
	}
	if got := reg.Counter("peer_exchange_fetches_total").Load(); got != 1 {
		t.Errorf("fetches = %d, want 1", got)
	}
	if got := reg.Counter("peer_exchange_serves_total").Load(); got != 1 {
		t.Errorf("serves = %d, want 1", got)
	}
}

func TestExchangeUninstrumented(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP exchange test")
	}
	// A nil observer must be inert end to end.
	var o *ExchangeObs
	resolver := NewStaticResolver()
	network := NewTCPExchange(resolver)
	network.Instrument(o)
	srv, err := ServeExchange("127.0.0.1:0", func() ([]eval.Info, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	srv.Instrument(o)
	resolver.Set("ghost", srv.Addr())
	if _, err := network.FetchEvaluations(obs.SpanContext{}, "ghost"); err != nil {
		t.Fatal(err)
	}
}
