package main

import (
	"sort"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/sim"
	"mdrep/internal/trace"
)

// Parameters shared by every workload. All three run on one seeded
// Maze-like trace so that the engine the judge workload reads is the one
// the walk-tcp workload publishes, and the ingest stream is the same
// evidence the other two load.
//
// The trace itself comes from traceSeed, not from the CLI seed: the
// heavy-tailed peer activity makes the trust matrix of a 2000-peer trace
// swing with its seed (0.74M to 1.26M nonzeros and 184 to 435 ms to
// build over seeds 1 to 8 on a 2-CPU host), which would drown any
// change's effect in seed noise. The CLI seed picks everything drawn
// from the trace: where the ingest stream starts, the judge requests and
// the walk sources with their estimator seeds.
const (
	traceSeed = 1

	peers  = 2000
	files  = 8000
	shards = 2 // journal.OpenSharded K

	// traceRecords is the trace length; the ingest stream cycles through
	// it (shifted in virtual time) when a run needs more events.
	traceRecords = 60000
	// judgeLoadRecords is the trace prefix loaded before judges start.
	judgeLoadRecords = 20000
	// voteEvery: on average one record in voteEvery also casts a vote.
	voteEvery = 8
)

// generator builds every workload input: from the fixed trace, the
// judge engine's load and its background write batches; from the CLI
// seed, the ingest stream's starting point, the judge requests and the
// walk-tcp source peers. The program under test receives only these
// generated inputs.
type generator struct {
	rng    *sim.RNG // CLI-seeded; parent of every stream drawn below
	tr     *trace.Trace
	fileID []eval.FileID
	// events holds, per trace record, a download, the downloader's
	// implicit evaluation and sometimes a vote, in trace order.
	events []core.Event
	// recEnd[r] is the end offset in events of record r's events.
	recEnd []int
}

func newGenerator(seed uint64) (*generator, error) {
	cfg := trace.DefaultGenConfig()
	cfg.Seed = traceSeed
	cfg.Peers = peers
	cfg.Files = files
	cfg.Downloads = traceRecords
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	g := &generator{rng: sim.NewRNG(seed), tr: tr, fileID: make([]eval.FileID, files)}
	for f := range g.fileID {
		g.fileID[f] = eval.FileID(trace.FileHash(f))
	}
	rng := sim.NewRNG(traceSeed).DeriveStream("e2ebench/events")
	g.events = make([]core.Event, 0, len(tr.Records)*2+len(tr.Records)/voteEvery+1)
	g.recEnd = make([]int, len(tr.Records))
	for r, rec := range tr.Records {
		f := g.fileID[rec.File]
		g.events = append(g.events,
			core.Event{Kind: core.EventDownload, I: rec.Downloader, J: rec.Uploader, File: f, Size: rec.Size, Time: rec.Time},
			core.Event{Kind: core.EventSetImplicit, I: rec.Downloader, File: f, Value: 0.5 + 0.5*rng.Float64(), Time: rec.Time})
		if rng.Intn(voteEvery) == 0 {
			g.events = append(g.events, core.Event{Kind: core.EventVote, I: rec.Downloader, File: f, Value: rng.Float64(), Time: rec.Time})
		}
		g.recEnd[r] = len(g.events)
	}
	return g, nil
}

// ingestStream returns the unbounded ingest stream: the trace's events
// from a seeded starting record on, wrapping round to the start with
// each repetition shifted past the previous one in virtual time, so
// event times never go backwards.
func (g *generator) ingestStream() func(k int) core.Event {
	rng := g.rng.DeriveStream("e2ebench/ingest")
	base := 0
	if r := rng.Intn(len(g.recEnd)); r > 0 {
		base = g.recEnd[r-1]
	}
	return func(k int) core.Event {
		k += base
		ev := g.events[k%len(g.events)]
		ev.Time += time.Duration(k/len(g.events)) * (g.tr.Duration() + time.Second)
		return ev
	}
}

// judgeLoad is the event prefix the judge and walk-tcp engines load.
func (g *generator) judgeLoad() []core.Event {
	return g.events[:g.recEnd[judgeLoadRecords-1]]
}

// writeBatches returns count background write batches of size events
// each: the trace's events right after the judge load. They do not
// depend on the seed, so every seed's run pays the same rebuilds; the
// seed varies the judge requests between them.
func (g *generator) writeBatches(count, size int) [][]core.Event {
	rest := g.events[len(g.judgeLoad()):]
	out := make([][]core.Event, 0, count)
	for len(out) < count && len(rest) >= size {
		out = append(out, rest[:size:size])
		rest = rest[size:]
	}
	return out
}

// judgeReq is one judge request: requester i asks for the reputation of
// file, held by owners.
type judgeReq struct {
	requester int
	file      eval.FileID
	owners    []int
}

// judgeRequests draws count requests from the loaded trace prefix: the
// requester by activity (a uniformly drawn record's downloader) and the
// file by popularity (another drawn record's file). Owners are the
// file's downloaders and uploaders in the prefix.
func (g *generator) judgeRequests(count int) []judgeReq {
	recs := g.tr.Records[:judgeLoadRecords]
	holders := make(map[int]map[int]struct{})
	for _, rec := range recs {
		h := holders[rec.File]
		if h == nil {
			h = make(map[int]struct{})
			holders[rec.File] = h
		}
		h[rec.Downloader] = struct{}{}
		h[rec.Uploader] = struct{}{}
	}
	owners := make(map[int][]int, len(holders))
	for f, h := range holders {
		o := make([]int, 0, len(h))
		for p := range h {
			o = append(o, p)
		}
		sort.Ints(o)
		owners[f] = o
	}
	rng := g.rng.DeriveStream("e2ebench/judge")
	out := make([]judgeReq, count)
	for k := range out {
		i := recs[rng.Intn(len(recs))].Downloader
		f := recs[rng.Intn(len(recs))].File
		out[k] = judgeReq{requester: i, file: g.fileID[f], owners: owners[f]}
	}
	return out
}

// walkSources draws count walk source peers by activity, each with its
// own estimator seed.
func (g *generator) walkSources(count int) []walkReq {
	recs := g.tr.Records[:judgeLoadRecords]
	rng := g.rng.DeriveStream("e2ebench/walk")
	out := make([]walkReq, count)
	for k := range out {
		out[k] = walkReq{source: recs[rng.Intn(len(recs))].Downloader, seed: rng.Uint64()}
	}
	return out
}

// walkReq is one walk estimate: a source peer and the estimator seed.
type walkReq struct {
	source int
	seed   uint64
}
