package core

import (
	"slices"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/sparse"
)

// rowCache is the frozen build state of one row range — the bare
// engine's [0, n), or one shard's owned peers: one row set per trust
// dimension and the TM rows integrated from them. The frozen row sets
// are the only row cache: a refresh rebuilds the dirty rows as slices
// and copies every clean row from the previous epoch's set, and TM is
// patched over exactly the rows some dimension rebuilt (TM_i reads only
// FM_i, DM_i and UM_i).
type rowCache struct {
	ids  []int // owned rows, ascending
	dims [3]*sparse.RowSet
	tm   *sparse.RowSet
	// tmAll forces every TM row to be re-integrated; otherwise tmDirty
	// lists the rows (unsorted, possibly repeated) some dimension rebuilt
	// since TM was last patched.
	tmAll   bool
	tmDirty []int
}

func newRowCache(n int, ids []int) (*rowCache, error) {
	empty, err := sparse.NewRowSet(n, ids)
	if err != nil {
		return nil, err
	}
	return &rowCache{ids: ids, dims: [3]*sparse.RowSet{empty, empty, empty}, tm: empty, tmAll: true}, nil
}

// refresh rebuilds dimension d's rows: every owned row when all is set,
// else dirty (ascending, owned). Rows are built in acc and accumulate
// exactly as the reference builders do, so the refreshed set equals a
// fresh freeze.
func (c *rowCache) refresh(e *Engine, acc *rowAcc, d int, all bool, dirty []int, now time.Duration) {
	if all {
		dirty = c.ids
		c.tmAll = true
	} else {
		c.tmDirty = append(c.tmDirty, dirty...)
	}
	var raw func(i int) ([]int32, []float64)
	switch d {
	case dimFM:
		memo := make(map[eval.FileID]*fileEvaluators)
		raw = func(i int) ([]int32, []float64) { return e.fmRow(i, now, memo, acc) }
	case dimDM:
		raw = func(i int) ([]int32, []float64) { return e.dmRow(i, now, acc) }
	default:
		raw = func(i int) ([]int32, []float64) { return e.umRow(i, acc) }
	}
	c.dims[d] = c.dims[d].Refreeze(dirty, raw)
}

// refreshTM re-integrates Eq. (7) over the rows the dimensions rebuilt
// since the last call and reports whether any TM row was recomputed.
func (c *rowCache) refreshTM(cfg Config) (bool, error) {
	dirty := c.ids
	if !c.tmAll {
		if len(c.tmDirty) == 0 {
			return false, nil
		}
		slices.Sort(c.tmDirty)
		dirty = slices.Compact(c.tmDirty)
	}
	tm, err := c.tm.PatchWeightedSum(dirty, []sparse.WeightedRows{
		{Scale: cfg.Alpha, Rows: c.dims[dimFM]},
		{Scale: cfg.Beta, Rows: c.dims[dimDM]},
		{Scale: cfg.Gamma, Rows: c.dims[dimUM]},
	})
	if err != nil {
		return false, err
	}
	c.tm = tm
	c.tmAll = false
	c.tmDirty = c.tmDirty[:0]
	return true, nil
}

// sortedRows returns a dirty-row set's members ascending.
func sortedRows(set map[int]struct{}) []int {
	buf := make([]int, 0, len(set))
	for i := range set {
		buf = append(buf, i)
	}
	slices.Sort(buf)
	return buf
}

// rowAcc is a dense row accumulator: a sum and a count per column, with
// a generation stamp per column so clearing between rows costs O(nnz of
// the row), not O(n) — the pattern of sparse's rowScratch. A built row
// (cols ascending, vals parallel) lives in the accumulator's own buffers
// and stays valid until the next row is built. It costs 16 bytes per
// peer, so a rebuild allocates one per worker rather than keeping one
// per shard alive between rebuilds.
type rowAcc struct {
	sum     []float64
	count   []int32
	stamp   []uint32
	gen     uint32
	touched []int32
	cols    []int32
	vals    []float64
}

func newRowAcc(n int) *rowAcc {
	return &rowAcc{sum: make([]float64, n), count: make([]int32, n), stamp: make([]uint32, n)}
}

// reset starts a new row.
//
//mdrep:hotpath
func (a *rowAcc) reset() {
	a.gen++
	if a.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(a.stamp)
		a.gen = 1
	}
	a.touched = a.touched[:0]
}

// add accumulates v into column j and counts it.
//
//mdrep:hotpath
func (a *rowAcc) add(j int, v float64) {
	if a.stamp[j] != a.gen {
		a.stamp[j] = a.gen
		a.sum[j], a.count[j] = 0, 0
		a.touched = append(a.touched, int32(j))
	}
	a.sum[j] += v
	a.count[j]++
}

// sorted orders the touched columns and empties the row buffers; the
// caller then appends each entry it keeps, ascending. A row touching at
// least 1/16 of the columns — an FM row in a dense co-evaluation graph —
// is ordered by one scan of the stamps, which beats sorting it.
//
//mdrep:hotpath
func (a *rowAcc) sorted() []int32 {
	if len(a.touched)*16 >= len(a.stamp) {
		a.touched = a.touched[:0]
		for j, g := range a.stamp {
			if g == a.gen {
				a.touched = append(a.touched, int32(j))
			}
		}
	} else {
		slices.Sort(a.touched)
	}
	a.cols, a.vals = a.cols[:0], a.vals[:0]
	return a.touched
}

// keep appends one entry of the row being emitted.
//
//mdrep:hotpath
func (a *rowAcc) keep(j int32, v float64) {
	a.cols = append(a.cols, j)
	a.vals = append(a.vals, v)
}

// positive emits the row of every touched column whose sum is > 0 — the
// DM and UM rows, where each column is set once.
func (a *rowAcc) positive() ([]int32, []float64) {
	for _, j := range a.sorted() {
		if v := a.sum[j]; v > 0 {
			a.keep(j, v)
		}
	}
	return a.cols, a.vals
}
