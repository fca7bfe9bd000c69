package chaos

import (
	"fmt"
	"sort"
	"time"

	"mdrep/internal/dht"
	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/flight"
	"mdrep/internal/identity"
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
	"mdrep/internal/sim"
)

// NetworkConfig builds one chaos-wired ring.
type NetworkConfig struct {
	// Nodes is the ring size.
	Nodes int
	// SuccessorListLen is the replication depth k: records live on the
	// root plus up to k successors.
	SuccessorListLen int
	// Chaos is the fault mix.
	Chaos Config
	// Retry, when non-nil, stacks a dht.RetryClient on every node's
	// transport; its backoff sleeps advance the virtual clock.
	Retry *dht.RetryPolicy
	// Metrics, when non-nil, exports the injector's fault tallies and
	// every slot's retry/RPC metrics (restarted slots included) into the
	// registry, timed by the network's virtual clock.
	Metrics *metrics.Registry
}

// Network is a MemNet ring whose every RPC flows through the chaos
// injector (and optionally the retry layer):
//
//	node → RetryClient → Chaos(boundClient) → MemNet → remote handler
//
// It exposes the crash/restart/partition primitives the fault schedules
// script, and the invariant checks the property suite asserts.
type Network struct {
	Mem   *dht.MemNet
	Chaos *Chaos
	Clock *Clock
	// Nodes holds the current process of each slot; Restart replaces
	// the slot with a fresh node at the same address.
	Nodes []*dht.Node
	// Retries holds each slot's retry layer (nil when disabled).
	Retries []*dht.RetryClient

	cfg NetworkConfig
}

// NewNetwork builds and converges a chaos-wired ring. Chaos faults are
// active during the build too, so configs with heavy loss should pair
// with a Retry policy.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Nodes < 2 {
		return nil, fault.Terminal(fmt.Errorf("chaos: network needs >= 2 nodes, got %d", cfg.Nodes))
	}
	if cfg.SuccessorListLen < 1 {
		cfg.SuccessorListLen = dht.DefaultNodeConfig().SuccessorListLen
	}
	nw := &Network{
		Mem:     dht.NewMemNet(),
		Clock:   NewClock(),
		Nodes:   make([]*dht.Node, cfg.Nodes),
		Retries: make([]*dht.RetryClient, cfg.Nodes),
		cfg:     cfg,
	}
	nw.Chaos = New(nw.Mem, nw.Clock, cfg.Chaos)
	nw.Chaos.Instrument(cfg.Metrics)
	for i := 0; i < cfg.Nodes; i++ {
		node, err := nw.spawn(i)
		if err != nil {
			return nil, err
		}
		nw.Nodes[i] = node
		if i > 0 {
			if err := nw.join(i); err != nil {
				return nil, err
			}
		}
	}
	nw.Converge(2*cfg.Nodes + 8)
	return nw, nil
}

// Addr returns slot i's ring address.
func (nw *Network) Addr(i int) string {
	return fmt.Sprintf("chaos://node-%03d", i)
}

// virtualClock adapts the network's virtual clock to the obs.Clock
// type, so exported latency spans measure virtual (deterministic) time.
func (nw *Network) virtualClock() obs.Clock {
	return func() time.Time { return time.Unix(0, 0).Add(nw.Clock.Now()) }
}

// spawn builds a fresh node process for slot i and registers it.
func (nw *Network) spawn(i int) (*dht.Node, error) {
	addr := nw.Addr(i)
	var client dht.Client = nw.Chaos.ClientFor(addr)
	if nw.cfg.Retry != nil {
		rc := dht.NewRetryClient(client, *nw.cfg.Retry, nw.cfg.Chaos.Seed+uint64(i))
		rc.SetSleep(nw.Clock.Advance)
		if nw.cfg.Metrics != nil {
			// All slots share the unlabelled series, so the exported
			// totals aggregate the whole ring and survive restarts.
			rc.Instrument(nw.cfg.Metrics, nw.virtualClock())
		}
		nw.Retries[i] = rc
		client = rc
	}
	ncfg := dht.NodeConfig{
		SuccessorListLen: nw.cfg.SuccessorListLen,
		Storage:          dht.NewStorage(0, nil),
	}
	node, err := dht.NewNode(addr, client, ncfg)
	if err != nil {
		return nil, err
	}
	nw.Mem.Register(addr, node)
	return node, nil
}

// join connects slot i to the ring via any live slot, trying each one.
func (nw *Network) join(i int) error {
	var lastErr error
	for b := 0; b < nw.cfg.Nodes; b++ {
		if b == i || nw.Chaos.Down(nw.Addr(b)) {
			continue
		}
		if err := nw.Nodes[i].Join(nw.Addr(b)); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = fault.Unreachable(fmt.Errorf("chaos: no live bootstrap for node %d", i))
	}
	return lastErr
}

// Crash kills slot i: chaos blocks its traffic both ways and MemNet
// drops in-flight (deferred) deliveries addressed to it. A crash is a
// black-box moment — the flight recorder snapshots whatever the ring
// held when the node went down.
func (nw *Network) Crash(i int) {
	addr := nw.Addr(i)
	nw.Chaos.Crash(addr)
	nw.Mem.Fail(addr)
	flight.TriggerDump(dumpReasonCrash + addr)
}

// Restart brings slot i back as a fresh process: empty storage, no ring
// state — the hard variant of churn. It rejoins through any live node.
func (nw *Network) Restart(i int) error {
	addr := nw.Addr(i)
	nw.Chaos.Restart(addr)
	node, err := nw.spawn(i) // Register also clears the MemNet failure
	if err != nil {
		return err
	}
	nw.Nodes[i] = node
	return nw.join(i)
}

// Live reports whether slot i is currently up.
func (nw *Network) Live(i int) bool { return !nw.Chaos.Down(nw.Addr(i)) }

// LiveNodes returns the current live node processes in slot order.
func (nw *Network) LiveNodes() []*dht.Node {
	out := make([]*dht.Node, 0, len(nw.Nodes))
	for i, n := range nw.Nodes {
		if nw.Live(i) {
			out = append(out, n)
		}
	}
	return out
}

// Partition applies a node-index partition map (missing slots default
// to group 0).
func (nw *Network) Partition(groups map[int]int) {
	byAddr := make(map[string]int, len(groups))
	for i, g := range groups {
		byAddr[nw.Addr(i)] = g
	}
	nw.Chaos.SetPartition(byAddr)
}

// Apply executes one schedule event.
func (nw *Network) Apply(ev Event) error {
	switch ev.Op {
	case OpCrash:
		for _, i := range ev.Nodes {
			nw.Crash(i)
		}
	case OpRestart:
		for _, i := range ev.Nodes {
			if err := nw.Restart(i); err != nil {
				return fmt.Errorf("chaos: restart node %d: %w", i, err)
			}
		}
	case OpPartition:
		nw.Partition(ev.Groups)
	case OpHeal:
		nw.Chaos.Heal()
	default:
		return fault.Terminal(fmt.Errorf("chaos: unknown op %v", ev.Op))
	}
	return nil
}

// Converge runs stabilisation rounds across live nodes, then refreshes
// their fingers — the same recipe dht.Ring uses, restricted to nodes
// that are actually up.
func (nw *Network) Converge(rounds int) {
	for r := 0; r < rounds; r++ {
		for i, n := range nw.Nodes {
			if nw.Live(i) {
				n.Stabilize()
			}
		}
	}
	for i, n := range nw.Nodes {
		if nw.Live(i) {
			n.FixAllFingers()
		}
	}
}

// MakeRecords synthesises count deterministic unsigned records (the
// simulation storage verifies nothing) spread over distinct keys.
func MakeRecords(count int, seed uint64) []dht.StoredRecord {
	rng := sim.NewRNG(seed).DeriveStream("records")
	recs := make([]dht.StoredRecord, 0, count)
	for i := 0; i < count; i++ {
		f := eval.FileID(fmt.Sprintf("chaos-file-%04d", i))
		recs = append(recs, dht.StoredRecord{
			Key: dht.HashKey(string(f)),
			Info: eval.Info{
				FileID:     f,
				OwnerID:    identity.PeerID(fmt.Sprintf("owner-%04d", i)),
				Evaluation: rng.Float64(),
				Timestamp:  time.Duration(i+1) * time.Second,
			},
		})
	}
	return recs
}

// Publish stores the records through the first live node, re-stamping
// them at ts so replicas accept the refresh (stores merge by owner and
// keep the newest timestamp).
func (nw *Network) Publish(recs []dht.StoredRecord, ts time.Duration) error {
	live := nw.LiveNodes()
	if len(live) == 0 {
		return fault.Unreachable(fmt.Errorf("chaos: no live node to publish through"))
	}
	for _, r := range recs {
		r.Info.Timestamp = ts
		// One record per Publish call: Publish groups records by key in a
		// map, and map iteration order would make the chaos RNG draw
		// sequence — and thus the whole run — nondeterministic.
		if err := live[0].Publish([]dht.StoredRecord{r}); err != nil {
			return err
		}
	}
	return nil
}

// VerifyRecords asserts every record is retrievable — with the right
// owner and evaluation — through the given node. It is the zero-loss
// invariant of the chaos suite.
func (nw *Network) VerifyRecords(via *dht.Node, recs []dht.StoredRecord) error {
	for _, want := range recs {
		got, err := via.Retrieve(obs.SpanContext{}, want.Key)
		if err != nil {
			return fmt.Errorf("chaos: retrieve %s: %w", want.Info.FileID, err)
		}
		found := false
		for _, r := range got {
			if r.Info.OwnerID == want.Info.OwnerID && r.Info.Evaluation == want.Info.Evaluation {
				found = true
				break
			}
		}
		if !found {
			return fault.Terminal(fmt.Errorf("chaos: record %s by %s lost (%d records under key)",
				want.Info.FileID, want.Info.OwnerID, len(got)))
		}
	}
	return nil
}

// VerifyRing asserts the live nodes form one consistent cycle: sorted
// by ring ID, each live node's successor must be the next live node.
// Valid only after the network has healed and converged.
func (nw *Network) VerifyRing() error {
	type slot struct {
		idx int
		id  dht.ID
	}
	var live []slot
	for i, n := range nw.Nodes {
		if nw.Live(i) {
			live = append(live, slot{idx: i, id: n.Self().ID})
		}
	}
	if len(live) < 2 {
		return fault.Terminal(fmt.Errorf("chaos: ring check needs >= 2 live nodes"))
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for k, s := range live {
		next := live[(k+1)%len(live)]
		succ := nw.Nodes[s.idx].Successor()
		if succ.Addr != nw.Addr(next.idx) {
			return fault.Terminal(fmt.Errorf("chaos: node %d successor = %s, want node %d (%s)",
				s.idx, succ.Addr, next.idx, nw.Addr(next.idx)))
		}
	}
	return nil
}

// RunSchedule drives the network through a fault schedule round by
// round: apply the round's events, stabilise, republish the records
// (§4.1's repair mechanism — republication restores replication depth
// after churn), and check the zero-loss invariant from every live
// node's viewpoint. stabRounds controls how much stabilisation each
// round gets. The records must already be published once.
func (nw *Network) RunSchedule(s *Schedule, recs []dht.StoredRecord, stabRounds int) error {
	byRound := make(map[int][]Event)
	maxRound := 0
	for _, ev := range s.Events {
		byRound[ev.Round] = append(byRound[ev.Round], ev)
		if ev.Round > maxRound {
			maxRound = ev.Round
		}
	}
	baseTS := 1 << 20 // past every MakeRecords timestamp
	for round := 0; round <= maxRound; round++ {
		for _, ev := range byRound[round] {
			if err := nw.Apply(ev); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		nw.Converge(stabRounds)
		ts := time.Duration(baseTS+round) * time.Second
		if err := nw.Publish(recs, ts); err != nil {
			return fmt.Errorf("round %d: republish: %w", round, err)
		}
		nw.Converge(1)
		if err := nw.VerifyRecords(nw.LiveNodes()[0], recs); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	return nil
}

// dumpReasonCrash prefixes the flight-dump reason for injected node
// crashes.
const dumpReasonCrash = "chaos: node crashed: "
