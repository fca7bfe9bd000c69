package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/obs"
	"mdrep/internal/sparse"
)

// Engine is the reputation system state for a population of peers indexed
// [0, n). It ingests the observable behaviour of §3.1 — file evaluations,
// download volumes and user ratings — and produces trust matrices and
// reputations.
//
// The matrix pipeline is incremental: ApplyEvent marks the dimension rows
// an event invalidates (a vote or retention signal dirties the FM rows of
// the file's co-evaluators plus the voter's DM row, a download dirties one
// DM row, a rating one UM row), and BuildFM/BuildDM/BuildUM rebuild only
// the dirty rows, copying every clean row from the previous frozen row
// set. BuildTM re-integrates just the TM rows those rebuilds touched and
// bumps an epoch counter whenever TM changes. Results are bit-identical
// to a from-scratch rebuild
// — the differential tests in incremental_test.go enforce it — so journal
// replay (internal/journal) reproduces identical matrices regardless of
// when builds happened in the original run.
//
// The Engine itself is not safe for concurrent use — even read-looking
// calls like Reputations patch the caches. Share it through Sharded
// (NewSharded with k = 1 for one shard): events take their owner shard's
// lock while reputation queries walk the frozen CSR snapshot lock-free.
type Engine struct {
	cfg    Config
	n      int
	stores []*eval.Store
	// downloads[i][j] accumulates the files peer i fetched from peer j
	// (Eq. 4 input). Repeated downloads of the same file count once per
	// occurrence, as in the Maze log.
	downloads []map[int][]downloadEntry
	// userTrust[i][j] is UT_ij (Eq. 6 input).
	userTrust []map[int]float64
	// blacklist[i][j] forces UT_ij to zero regardless of later ratings.
	blacklist []map[int]struct{}
	// evaluators is the inverted index file → peers with a live
	// evaluation; it keeps FM construction proportional to actual
	// co-evaluation instead of O(n²). The index is stripe-locked so the
	// sharded facade's per-shard writers can share it.
	evaluators *evalIndex

	// Incremental build state. dims track each dimension's dirty rows
	// and hold its frozen CSR; rows holds the frozen row sets over
	// [0, n) they view; tm is the cached frozen integration of Eq. (7),
	// nil whenever a dimension has been refreshed since.
	dims  [3]dimCache
	rows  *rowCache
	tm    *sparse.CSR
	epoch uint64
	// lastNow is the virtual time of the most recent build; window expiry
	// between builds is detected by scanning for records that died in
	// (lastNow, now].
	lastNow    time.Duration
	lastNowSet bool

	// obs is the metrics observer (see obs.go); the zero value, the
	// default, is uninstrumented.
	obs EngineObs
}

type downloadEntry struct {
	file eval.FileID
	size int64
}

// dimCache is the incremental state of one trust dimension.
type dimCache struct {
	// frozen is the row-normalised CSR view of the dimension's row set;
	// nil when stale.
	frozen *sparse.CSR
	// dirty lists rows that must be recomputed; ignored while all is set.
	dirty map[int]struct{}
	// all forces a full recompute (initial build, restore, time reversal).
	all bool
}

func newDimCache() dimCache {
	return dimCache{dirty: make(map[int]struct{}), all: true}
}

// markRow invalidates one cached row and the frozen forms above it.
func (d *dimCache) markRow(i int) {
	if !d.all {
		d.dirty[i] = struct{}{}
	}
	d.frozen = nil
}

// invalidate forces a full recompute.
func (d *dimCache) invalidate() {
	d.all = true
	d.frozen = nil
	if len(d.dirty) > 0 {
		d.dirty = make(map[int]struct{})
	}
}

// stale reports whether the frozen form is out of date.
func (d *dimCache) stale() bool { return d.frozen == nil }

// NewEngine builds an engine for n peers.
func NewEngine(n int, cfg Config) (*Engine, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: population %d, want >= 1", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	rows, err := newRowCache(n, all)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		n:          n,
		stores:     make([]*eval.Store, n),
		downloads:  make([]map[int][]downloadEntry, n),
		userTrust:  make([]map[int]float64, n),
		blacklist:  make([]map[int]struct{}, n),
		evaluators: newEvalIndex(),
		dims:       [3]dimCache{newDimCache(), newDimCache(), newDimCache()},
		rows:       rows,
	}
	for i := range e.stores {
		s, err := eval.NewStore(cfg.Blend, cfg.Window)
		if err != nil {
			return nil, err
		}
		e.stores[i] = s
	}
	return e, nil
}

// N returns the population size.
func (e *Engine) N() int { return e.n }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Epoch returns the number of times the cached TM has been rebuilt with
// changes; callers use it to notice when cached per-peer reputation rows
// are stale.
func (e *Engine) Epoch() uint64 { return e.epoch }

func (e *Engine) checkPeer(p int) error {
	if p < 0 || p >= e.n {
		return fmt.Errorf("core: peer %d outside [0, %d)", p, e.n)
	}
	return nil
}

func (e *Engine) indexEvaluator(f eval.FileID, p int) {
	e.evaluators.add(f, p)
}

// --- dirty-row rules --------------------------------------------------------

// Dimension discriminators for markFunc callbacks.
const (
	dimFM = iota
	dimDM
	dimUM
)

// markFunc receives cache-invalidation effects of an evidence mutation:
// dimension dim's row must be recomputed before the next build. The
// unsharded Engine routes marks into its own dimCaches; core.Sharded
// routes them to the owning shard's dirty tracker. A markFunc may be
// called under an index stripe lock and must not acquire shard data
// locks.
type markFunc func(dim int, row int)

// markDim is the Engine's own markFunc.
func (e *Engine) markDim(dim int, row int) {
	e.dims[dim].markRow(row)
}

// dirtyEvaluationTo records that peer p's evaluation of file f changed:
// p's DM row re-weights (Eq. 4 uses E_ik), and the FM rows of every
// co-evaluator of f shift (FT is pairwise over shared files, and the
// deterministic evaluator sample of a capped file can change membership).
func (e *Engine) dirtyEvaluationTo(p int, f eval.FileID, mark markFunc) {
	mark(dimDM, p)
	mark(dimFM, p)
	e.evaluators.forEachPeer(f, func(j int) { mark(dimFM, j) })
}

// dirtyEvaluation is dirtyEvaluationTo into the engine's own caches.
func (e *Engine) dirtyEvaluation(p int, f eval.FileID) {
	e.dirtyEvaluationTo(p, f, e.markDim)
}

// dirtyExpiry is dirtyEvaluation for a record that expired or was
// compacted away rather than rewritten.
func (e *Engine) dirtyExpiry(p int, f eval.FileID) { e.dirtyEvaluation(p, f) }

// advanceTime reconciles the caches with the virtual clock before a build
// at now. Builds at an earlier time than the caches were computed for
// invalidate everything (liveness is evaluated at build time, so history
// is not monotone when time runs backwards); moving forward only dirties
// the rows of records that expired in between.
func (e *Engine) advanceTime(now time.Duration) {
	if !e.lastNowSet {
		e.lastNow, e.lastNowSet = now, true
		return
	}
	if now == e.lastNow {
		return
	}
	if now < e.lastNow {
		for d := range e.dims {
			e.dims[d].invalidate()
		}
		e.lastNow = now
		return
	}
	if e.cfg.Window > 0 {
		e.scanExpired(e.lastNow, now, nil, e.markDim)
	}
	e.lastNow = now
}

// scanExpired marks the rows invalidated by records that expired in
// (prev, now], restricted to peers selected by owns (nil = all). The
// sharded facade runs one scan per shard in parallel; expiry of p's
// evaluation of f invalidates FM rows of f's co-evaluators in any shard,
// which mark routes to the right dirty tracker.
func (e *Engine) scanExpired(prev, now time.Duration, owns func(p int) bool, mark markFunc) {
	for p, s := range e.stores {
		if owns != nil && !owns(p) {
			continue
		}
		for _, f := range s.ExpiredBetween(prev, now) {
			e.dirtyEvaluationTo(p, f, mark)
		}
	}
}

// --- incremental row construction ------------------------------------------

// fileEvaluators is the per-build memo of one file's live, deterministically
// sampled evaluator list: peers ascending, values parallel.
type fileEvaluators struct {
	peers []int
	vals  []float64
}

// liveEvaluators computes (and memoises) file f's live evaluators at now,
// sorted by peer index and strided down to the MaxEvaluatorsPerFile cap —
// exactly the list the reference full rebuild pairs up, so per-row
// recomputation reproduces its float arithmetic bit for bit.
func (e *Engine) liveEvaluators(f eval.FileID, now time.Duration, memo map[eval.FileID]*fileEvaluators) *fileEvaluators {
	if fe, ok := memo[f]; ok {
		return fe
	}
	var live []int
	var vals []float64
	e.evaluators.forEachPeer(f, func(p int) {
		if v, ok := e.stores[p].Get(f, now); ok {
			live = append(live, p)
			vals = append(vals, v)
		}
	})
	sort.Sort(&evaluatorsByPeer{peers: live, vals: vals})
	if maxEval := e.cfg.MaxEvaluatorsPerFile; maxEval > 0 && len(live) > maxEval {
		// Deterministic sample: keep a strided subset of the ordered
		// evaluators so the kept set is stable across rebuilds and spans
		// the index range.
		stride := float64(len(live)) / float64(maxEval)
		for k := 0; k < maxEval; k++ {
			i := int(float64(k) * stride)
			live[k], vals[k] = live[i], vals[i]
		}
		live, vals = live[:maxEval], vals[:maxEval]
	}
	fe := &fileEvaluators{peers: live, vals: vals}
	memo[f] = fe
	return fe
}

// fmRow recomputes row i of the raw (unnormalised) file-based matrix
// (Eq. 2): FT_ij = 1 - (1/m)·Σ_{k∈F} |E_ik − E_jk| over the co-evaluated
// set F. Files iterate in ascending FileID order and pair contributions
// accumulate per co-evaluator in that order — the same order the full
// rebuild uses, so the sums are bit-identical. The row is built in acc
// and returned columns ascending, valid until acc's next row.
func (e *Engine) fmRow(i int, now time.Duration, memo map[eval.FileID]*fileEvaluators, acc *rowAcc) ([]int32, []float64) {
	acc.reset()
	for _, f := range e.stores[i].Files(now) {
		fe := e.liveEvaluators(f, now, memo)
		pos, ok := slices.BinarySearch(fe.peers, i)
		if !ok {
			continue // i evaluated f but fell out of the deterministic sample
		}
		for idx, j := range fe.peers {
			if j != i {
				acc.add(j, math.Abs(fe.vals[pos]-fe.vals[idx]))
			}
		}
	}
	for _, j := range acc.sorted() {
		if ft := 1 - acc.sum[j]/float64(acc.count[j]); ft > 0 {
			acc.keep(j, ft)
		}
	}
	return acc.cols, acc.vals
}

// dmRow recomputes row i of the raw download-volume matrix (Eq. 4):
// VD_ij = Σ_{k ∈ D_ij} E_ik·S_k, with unevaluated files contributing the
// retention floor. Entries accumulate in ledger (event) order per
// uploader, as in the full rebuild. The row is built in acc, as fmRow.
func (e *Engine) dmRow(i int, now time.Duration, acc *rowAcc) ([]int32, []float64) {
	acc.reset()
	floor := e.cfg.Retention.Floor
	for j, entries := range e.downloads[i] {
		vd := 0.0
		for _, d := range entries {
			ev, ok := e.stores[i].Get(d.file, now)
			if !ok {
				ev = floor
			}
			vd += ev * float64(d.size)
		}
		acc.add(j, vd)
	}
	return acc.positive()
}

// umRow recomputes row i of the raw user-based matrix (Eq. 6), built in
// acc as fmRow.
func (e *Engine) umRow(i int, acc *rowAcc) ([]int32, []float64) {
	acc.reset()
	for j, v := range e.userTrust[i] {
		acc.add(j, v)
	}
	return acc.positive()
}

// refresh rebuilds dimension d's dirty rows (all of them after an
// invalidation) into the engine's row sets — the same path each shard of
// Sharded runs over its own rows — and drops the cached TM.
func (e *Engine) refresh(d int, now time.Duration) {
	dc := &e.dims[d]
	if !dc.stale() {
		return
	}
	e.obs.dirty[d].Add(uint64(e.dirtyCount(dc)))
	sp := obs.Timed(e.obs.clock, e.obs.build[d])
	e.rows.refresh(e, newRowAcc(e.n), d, dc.all, sortedRows(dc.dirty), now)
	dc.all = false
	if len(dc.dirty) > 0 {
		dc.dirty = make(map[int]struct{})
	}
	dc.frozen = view(e.n, e.rows.dims[d])
	e.tm = nil
	sp.End()
}

// view returns the CSR of a row set over [0, n), sharing its storage.
func view(n int, set *sparse.RowSet) *sparse.CSR {
	c, err := sparse.MergeRowSets(n, []*sparse.RowSet{set})
	if err != nil {
		panic(err) // the engine's sets are built with dimension n
	}
	return c
}

// --- public build API -------------------------------------------------------

// SetImplicit records peer p's implicit (retention-derived) evaluation of
// file f.
func (e *Engine) SetImplicit(p int, f eval.FileID, value float64, now time.Duration) error {
	return e.ApplyEvent(Event{Kind: EventSetImplicit, I: p, File: f, Value: value, Time: now})
}

// ObserveRetention records an implicit evaluation computed from the
// configured retention model.
func (e *Engine) ObserveRetention(p int, f eval.FileID, retention time.Duration, deleted bool, now time.Duration) error {
	return e.SetImplicit(p, f, e.cfg.Retention.Implicit(retention, deleted), now)
}

// Vote records peer p's explicit evaluation of file f.
func (e *Engine) Vote(p int, f eval.FileID, value float64, now time.Duration) error {
	return e.ApplyEvent(Event{Kind: EventVote, I: p, File: f, Value: value, Time: now})
}

// Evaluation returns peer p's blended evaluation of f, if live.
func (e *Engine) Evaluation(p int, f eval.FileID, now time.Duration) (float64, bool) {
	if e.checkPeer(p) != nil {
		return 0, false
	}
	return e.stores[p].Get(f, now)
}

// RecordDownload registers that downloader fetched file f (size bytes)
// from uploader; it feeds VD of Eq. (4). The evaluation weight E_ik is
// resolved lazily when DM is built, so a later vote or retention update
// retroactively re-weights the volume — sharing a file the downloader
// ends up judging fake earns no download-volume trust.
func (e *Engine) RecordDownload(downloader, uploader int, f eval.FileID, size int64, now time.Duration) error {
	return e.ApplyEvent(Event{Kind: EventDownload, I: downloader, J: uploader, File: f, Size: size, Time: now})
}

// RateUser records UT_ij = value (Eq. 6). Blacklisted targets stay at
// zero.
func (e *Engine) RateUser(i, j int, value float64) error {
	return e.ApplyEvent(Event{Kind: EventRateUser, I: i, J: j, Value: value})
}

// AddFriend assigns the configured friend-list trust to j (§3.1.3).
func (e *Engine) AddFriend(i, j int) error {
	return e.RateUser(i, j, e.cfg.FriendTrust)
}

// Blacklist sets UT_ij to zero permanently for i's view of j (§3.1.3:
// "the users in the blacklist … should be assigned with zero").
func (e *Engine) Blacklist(i, j int) error {
	return e.ApplyEvent(Event{Kind: EventBlacklist, I: i, J: j})
}

// BuildFM returns the frozen file-based one-step matrix (Eq. 2–3) at time
// now, patching only rows invalidated since the previous build.
func (e *Engine) BuildFM(now time.Duration) *sparse.CSR {
	e.advanceTime(now)
	e.refresh(dimFM, now)
	return e.dims[dimFM].frozen
}

// BuildDM returns the frozen download-volume matrix (Eq. 4–5) at time now.
func (e *Engine) BuildDM(now time.Duration) *sparse.CSR {
	e.advanceTime(now)
	e.refresh(dimDM, now)
	return e.dims[dimDM].frozen
}

// BuildUM returns the frozen user-based matrix (Eq. 6).
func (e *Engine) BuildUM() *sparse.CSR {
	e.refresh(dimUM, 0) // UM does not depend on time
	return e.dims[dimUM].frozen
}

// BuildTM integrates the three dimensions into the one-step direct trust
// matrix of Eq. (7) and caches the frozen result; repeated calls with no
// intervening changes return the same *sparse.CSR. Rows of TM are
// sub-stochastic when a peer lacks one of the dimensions; that is
// intentional — missing evidence must not be re-weighted into false
// confidence.
func (e *Engine) BuildTM(now time.Duration) (*sparse.CSR, error) {
	e.advanceTime(now)
	for d := range e.dims {
		e.refresh(d, now)
	}
	if e.tm == nil {
		sp := obs.Timed(e.obs.clock, e.obs.refreeze)
		if _, err := e.rows.refreshTM(e.cfg); err != nil {
			return nil, err
		}
		e.tm = view(e.n, e.rows.tm)
		e.epoch++
		sp.End()
		e.obs.refreezes.Inc()
	}
	return e.tm, nil
}

// InvalidateCaches drops every cached dimension matrix and the frozen TM,
// forcing the next build to recompute all rows from scratch. Normal event
// flow never needs it — ApplyEvent tracks dirty rows precisely — but it
// gives tests and benchmarks a way to compare incremental patching against
// a full rebuild on the same evidence.
func (e *Engine) InvalidateCaches() {
	for d := range e.dims {
		e.dims[d].invalidate()
	}
	e.tm = nil
}

// CachedTM returns the frozen TM for time now without rebuilding, if the
// cache is current: no dirty rows, and either the build time matches or
// nothing can expire (Window == 0 makes the matrices independent of the
// clock).
func (e *Engine) CachedTM(now time.Duration) (*sparse.CSR, bool) {
	if e.tm == nil || e.dims[dimFM].stale() || e.dims[dimDM].stale() || e.dims[dimUM].stale() {
		return nil, false
	}
	if !e.lastNowSet || (now != e.lastNow && e.cfg.Window > 0) {
		return nil, false
	}
	return e.tm, true
}

// BuildRM computes the full reputation matrix RM = TM^n (Eq. 8).
func (e *Engine) BuildRM(now time.Duration) (*sparse.CSR, error) {
	tm, err := e.BuildTM(now)
	if err != nil {
		return nil, err
	}
	sp := obs.Timed(e.obs.clock, e.obs.buildRM)
	rm, err := tm.Pow(e.cfg.Steps)
	sp.End()
	return rm, err
}

// Reputations returns row i of RM — peer i's multi-trust reputation view
// of every other peer — without materialising the full power.
func (e *Engine) Reputations(i int, now time.Duration) (map[int]float64, error) {
	if err := e.checkPeer(i); err != nil {
		return nil, err
	}
	tm, err := e.BuildTM(now)
	if err != nil {
		return nil, err
	}
	sp := obs.Timed(e.obs.clock, e.obs.repWalk)
	row, err := tm.RowVecPow(i, e.cfg.Steps)
	sp.End()
	return row, err
}

// ReputationsFromTM is Reputations against a prebuilt TM, letting callers
// amortise matrix construction across many queries.
func (e *Engine) ReputationsFromTM(tm *sparse.CSR, i int) (map[int]float64, error) {
	if err := e.checkPeer(i); err != nil {
		return nil, err
	}
	return tm.RowVecPow(i, e.cfg.Steps)
}

// Compact drops expired evaluations from every store and prunes the
// inverted index; call periodically in long simulations. Compaction is an
// event because it changes state: a journaled engine must replay it at
// the same point in the sequence to reproduce the same matrices.
func (e *Engine) Compact(now time.Duration) {
	_ = e.ApplyEvent(Event{Kind: EventCompact, Time: now})
}

func (e *Engine) compact(now time.Duration) {
	e.compactEvidence(now, nil, e.markDim)
}

// compactEvidence drops expired evaluations of the peers selected by owns
// (nil = all) and prunes their index entries. Removal changes liveness
// for builds at any time (including earlier ones the build-time expiry
// scan will not cover), so every record compaction drops invalidates its
// dependent rows up front, through mark. Restricting by owner makes
// compaction decomposable per shard: a global EventCompact is exactly the
// union of per-shard compactions, in any order, because each peer's
// records and index entries are touched by exactly one owner.
func (e *Engine) compactEvidence(now time.Duration, owns func(p int) bool, mark markFunc) {
	for p, s := range e.stores {
		if owns != nil && !owns(p) {
			continue
		}
		for _, f := range s.ExpiredFiles(now) {
			e.dirtyEvaluationTo(p, f, mark)
		}
	}
	for p, s := range e.stores {
		if owns != nil && !owns(p) {
			continue
		}
		s.Compact(now)
	}
	e.evaluators.prune(owns, func(p int, f eval.FileID) bool {
		_, ok := e.stores[p].Get(f, now)
		return !ok
	})
}

// --- reference (from-scratch) builders --------------------------------------

// The map-backed full rebuilds below are the executable specification the
// incremental CSR pipeline is tested against: incremental_test.go asserts
// the patched matrices match these entry-for-entry, bit for bit. They are
// deliberately kept byte-compatible with the pre-CSR implementation.

// buildFMRef constructs the file-based one-step matrix (Eq. 2–3) from
// scratch. For each pair (i, j) with a non-empty co-evaluated set F of
// size m:
//
//	FT_ij = 1 - (1/m)·Σ_{k∈F} |E_ik − E_jk|
//
// then rows are normalised. Construction walks the inverted file index, so
// cost is Σ_f |evaluators(f)|², the actual co-evaluation mass.
func (e *Engine) buildFMRef(now time.Duration) *sparse.Matrix {
	type pairKey struct{ i, j int }
	sums := make(map[pairKey]float64)
	counts := make(map[pairKey]int)
	// Cache each peer's snapshot once.
	snaps := make([]map[eval.FileID]float64, e.n)
	snap := func(p int) map[eval.FileID]float64 {
		if snaps[p] == nil {
			snaps[p] = e.stores[p].Snapshot(now)
		}
		return snaps[p]
	}
	maxEval := e.cfg.MaxEvaluatorsPerFile
	// Iterate files in sorted order and evaluators in peer order so the
	// floating-point accumulation below is deterministic: a journal replay
	// (internal/journal) must rebuild bit-identical matrices.
	for _, f := range e.evaluators.sortedFiles() {
		// Collect live evaluators of f.
		var live []int
		var vals []float64
		e.evaluators.forEachPeer(f, func(p int) {
			if v, ok := snap(p)[f]; ok {
				live = append(live, p)
				vals = append(vals, v)
			}
		})
		sort.Sort(&evaluatorsByPeer{peers: live, vals: vals})
		if maxEval > 0 && len(live) > maxEval {
			// Deterministic sample: keep a strided subset of the ordered
			// evaluators so the kept set is stable across rebuilds and
			// spans the index range.
			stride := float64(len(live)) / float64(maxEval)
			for k := 0; k < maxEval; k++ {
				i := int(float64(k) * stride)
				live[k], vals[k] = live[i], vals[i]
			}
			live, vals = live[:maxEval], vals[:maxEval]
		}
		for a := 0; a < len(live); a++ {
			for b := a + 1; b < len(live); b++ {
				i, j := live[a], live[b]
				if i > j {
					i, j = j, i
				}
				k := pairKey{i, j}
				sums[k] += math.Abs(vals[a] - vals[b])
				counts[k]++
			}
		}
	}
	fm := sparse.New(e.n)
	for k, c := range counts {
		ft := 1 - sums[k]/float64(c)
		if ft <= 0 {
			continue
		}
		// FT is symmetric; FM is not after row normalisation.
		fm.Set(k.i, k.j, ft)
		fm.Set(k.j, k.i, ft)
	}
	return fm.RowNormalize()
}

// buildDMRef constructs the download-volume matrix (Eq. 4–5) from scratch.
func (e *Engine) buildDMRef(now time.Duration) *sparse.Matrix {
	dm := sparse.New(e.n)
	floor := e.cfg.Retention.Floor
	for i, per := range e.downloads {
		for j, entries := range per {
			vd := 0.0
			for _, d := range entries {
				ev, ok := e.stores[i].Get(d.file, now)
				if !ok {
					ev = floor
				}
				vd += ev * float64(d.size)
			}
			if vd > 0 {
				dm.Set(i, j, vd)
			}
		}
	}
	return dm.RowNormalize()
}

// buildUMRef constructs the user-based matrix (Eq. 6) from scratch.
func (e *Engine) buildUMRef() *sparse.Matrix {
	um := sparse.New(e.n)
	for i, per := range e.userTrust {
		for j, v := range per {
			if v > 0 {
				um.Set(i, j, v)
			}
		}
	}
	return um.RowNormalize()
}

// buildTMRef integrates the reference dimensions from scratch (Eq. 7).
func (e *Engine) buildTMRef(now time.Duration) (*sparse.Matrix, error) {
	tm := sparse.New(e.n)
	if err := tm.AddScaled(e.cfg.Alpha, e.buildFMRef(now)); err != nil {
		return nil, err
	}
	if err := tm.AddScaled(e.cfg.Beta, e.buildDMRef(now)); err != nil {
		return nil, err
	}
	if err := tm.AddScaled(e.cfg.Gamma, e.buildUMRef()); err != nil {
		return nil, err
	}
	return tm, nil
}

// evaluatorsByPeer sorts parallel (peer, value) slices by peer index.
type evaluatorsByPeer struct {
	peers []int
	vals  []float64
}

func (s *evaluatorsByPeer) Len() int           { return len(s.peers) }
func (s *evaluatorsByPeer) Less(i, j int) bool { return s.peers[i] < s.peers[j] }
func (s *evaluatorsByPeer) Swap(i, j int) {
	s.peers[i], s.peers[j] = s.peers[j], s.peers[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}
