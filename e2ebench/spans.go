package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function or interface method. Depth orders the layers of one
// request: 0 is the request itself ("op.*"), and a span's children are
// the spans one level deeper in the same request.
type span struct {
	Name   string `json:"name"`
	Depth  int    `json:"depth"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// recorder keeps the traced run's spans in memory until the run ends. A
// nil *recorder records nothing, which is how untraced runs skip every
// span at the cost of a nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the recorder clock in nanoseconds since it was made.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// add records a span that started at start and ends now.
func (r *recorder) add(name string, depth int, req uint64, start int64) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Depth: depth, Req: req, Start: start, End: end, Parent: -1})
	r.mu.Unlock()
}

// interval is a half-open [lo, hi) stretch of recorder time.
type interval struct{ lo, hi int64 }

// union merges intervals into disjoint ones sorted by start.
func union(ivs []interval) []interval {
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].lo < sorted[b].lo })
	var out []interval
	for _, iv := range sorted {
		if iv.hi <= iv.lo {
			continue
		}
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered returns how much of p the disjoint sorted intervals u cover.
func covered(p interval, u []interval) int64 {
	var c int64
	for k := sort.Search(len(u), func(k int) bool { return u[k].hi > p.lo }); k < len(u) && u[k].lo < p.hi; k++ {
		c += min(p.hi, u[k].hi) - max(p.lo, u[k].lo)
	}
	return c
}

// selfTime is the time parents cover minus the union of their
// children's intervals within it: overlapping parents count once,
// overlapping children count once, and a child reaching outside every
// parent counts only inside them. For a single parent span it is that
// span's self time.
func selfTime(parents, children []interval) int64 {
	cu := union(children)
	var self int64
	for _, p := range union(parents) {
		self += p.hi - p.lo - covered(p, cu)
	}
	return self
}

// layerOf is the layer a span name belongs to: the part before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerTable holds, summed over every request, each layer's self time
// and each span name's count and total duration.
type layerTable struct {
	self  map[string]int64 // layer → summed self time, ns
	spans map[string]int   // span name → count
	total map[string]int64 // span name → summed duration, ns
	ops   int              // request (depth-0) spans
}

// analyze resolves each span's parent (the tightest enclosing span one
// level up in the same request) and sums self time per layer. Within a
// request, a layer's self time is the time its spans cover that no span
// of a deeper layer covers: each stretch the layer covers is a parent,
// and every deeper span overlapping it is a child. This keeps the layers
// of one request summing to its duration even where spans of one layer
// overlap: concurrent walk workers of an estimate, or a find_successor
// hop forwarded inside the RPC that caused it.
func (r *recorder) analyze() layerTable {
	t := layerTable{self: map[string]int64{}, spans: map[string]int{}, total: map[string]int64{}}
	byReq := map[uint64][]int{}
	for k := range r.spans {
		byReq[r.spans[k].Req] = append(byReq[r.spans[k].Req], k)
	}
	for req, idx := range byReq {
		if req == 0 {
			continue // outside any request, e.g. publication's RPCs
		}
		byDepth := map[int][]int{}
		layerIvs := map[string][]interval{}
		layerDepth := map[string]int{}
		for _, k := range idx {
			s := r.spans[k]
			byDepth[s.Depth] = append(byDepth[s.Depth], k)
			l := layerOf(s.Name)
			if d, ok := layerDepth[l]; !ok || s.Depth < d {
				layerDepth[l] = s.Depth
			}
			layerIvs[l] = append(layerIvs[l], interval{s.Start, s.End})
			t.spans[s.Name]++
			t.total[s.Name] += s.End - s.Start
			if s.Depth == 0 {
				t.ops++
			}
		}
		for l, ivs := range layerIvs {
			var deeper []interval
			for m, mivs := range layerIvs {
				if layerDepth[m] > layerDepth[l] {
					deeper = append(deeper, mivs...)
				}
			}
			t.self[l] += selfTime(ivs, deeper)
		}
		for _, ks := range byDepth {
			sort.Slice(ks, func(a, b int) bool { return r.spans[ks[a]].Start < r.spans[ks[b]].Start })
		}
		for _, k := range idx {
			s := &r.spans[k]
			s.Parent = r.enclosing(byDepth[s.Depth-1], interval{s.Start, s.End})
		}
	}
	return t
}

// maxConcurrent bounds how many earlier-starting spans enclosing looks
// back over: one request never runs more than a handful of calls of one
// layer at once (GOMAXPROCS walk workers).
const maxConcurrent = 8

// enclosing returns the span among ks (sorted by start) that contains iv
// and ends first, or -1.
func (r *recorder) enclosing(ks []int, iv interval) int {
	best := -1
	j := sort.Search(len(ks), func(j int) bool { return r.spans[ks[j]].Start > iv.lo })
	for look := 0; j > 0 && look < maxConcurrent; look++ {
		j--
		p := r.spans[ks[j]]
		if p.End >= iv.hi && (best < 0 || p.End < r.spans[best].End) {
			best = ks[j]
		}
	}
	return best
}

// write prints the self-time table: per layer, summed self time, the
// share of all self time and the self time per request.
func (t layerTable) write(w io.Writer) {
	var sum int64
	layers := make([]string, 0, len(t.self))
	for l, ns := range t.self {
		layers = append(layers, l)
		sum += ns
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "# self time per layer over %d requests (op = request time no layer span covers)\n", t.ops)
	for _, l := range layers {
		fmt.Fprintf(w, "#   %-8s %12.3f ms  %6.2f%%  %10.4f ms/request\n", l,
			float64(t.self[l])/1e6, 100*float64(t.self[l])/float64(max(sum, 1)), float64(t.self[l])/1e6/float64(max(t.ops, 1)))
	}
}

// dump writes every span as one JSON object per line.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
