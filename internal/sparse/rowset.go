package sparse

import (
	"errors"
	"fmt"
	"sort"
)

// RowSet is a frozen subset of an n×n matrix's rows — the unit the trust
// engine keeps per dimension and per shard, and patches row by row as
// evidence changes. Rows listed in ids are stored back to back in CSR
// layout; every other row of the eventual matrix is empty as far as this
// set is concerned. A RowSet is immutable: Refreeze and PatchWeightedSum
// return a new set that copies the clean rows verbatim from the old one,
// which stays valid for readers that still hold it.
//
// The per-row math of Refreeze is identical to FreezeNormalized (same
// ascending-column sum, same division), and rows are independent, so a
// set patched through any sequence of dirty subsets equals a fresh
// freeze of the final rows, and merging the row sets of any K-way
// partition of [0, n) yields a CSR byte-identical to freezing all rows
// at once — the bit-identity half of the shard-count invariance
// argument.
type RowSet struct {
	n      int
	ids    []int32 // owned row indices, ascending; shared by every patch
	rowPtr []int32 // len(ids)+1, offsets into cols/vals
	cols   []int32
	vals   []float64
}

// NewRowSet returns the set over ids with every row empty: the starting
// point a first Refreeze fills. ids must be ascending, unique and inside
// [0, n).
func NewRowSet(n int, ids []int) (*RowSet, error) {
	r := &RowSet{n: n, ids: make([]int32, len(ids)), rowPtr: make([]int32, len(ids)+1)}
	for k, i := range ids {
		if i < 0 || i >= n || (k > 0 && i <= ids[k-1]) {
			return nil, fmt.Errorf("sparse: row set ids must ascend inside [0, %d); got %d at %d", n, i, k)
		}
		r.ids[k] = int32(i)
	}
	return r, nil
}

// N returns the dimension of the matrix the set belongs to.
func (r *RowSet) N() int { return r.n }

// Rows returns the number of owned rows (including empty ones).
func (r *RowSet) Rows() int { return len(r.ids) }

// NNZ returns the number of stored entries.
func (r *RowSet) NNZ() int { return len(r.cols) }

// row returns global row i's columns (ascending) and values as
// subslices of the set's storage, or nil slices if the set does not own
// row i.
//
//mdrep:hotpath
func (r *RowSet) row(i int) ([]int32, []float64) {
	k := r.pos(i)
	if k < 0 {
		return nil, nil
	}
	lo, hi := r.rowPtr[k], r.rowPtr[k+1]
	return r.cols[lo:hi], r.vals[lo:hi]
}

// pos returns the index of global row i within ids, or -1.
//
//mdrep:hotpath
func (r *RowSet) pos(i int) int {
	lo, hi := 0, len(r.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(r.ids[mid]) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.ids) && int(r.ids[lo]) == i {
		return lo
	}
	return -1
}

// Refreeze returns a copy of r in which each row listed in dirty is
// rebuilt from raw(i) and row-normalised, and every other row is copied
// verbatim. raw returns row i's raw (unnormalised) entries, columns
// ascending; the row is divided by its sum (accumulated in that order,
// as FreezeNormalized does), and a row whose sum is zero or negative
// becomes empty. dirty must be an ascending subset of r's ids. The
// slices raw returns are copied before the next call, so the caller may
// build every row in one reused buffer.
func (r *RowSet) Refreeze(dirty []int, raw func(i int) ([]int32, []float64)) *RowSet {
	return r.patch(dirty, func(i int, st *stage) {
		cols, vals := raw(i)
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		if sum <= 0 {
			return
		}
		st.cols = append(st.cols, cols...)
		for _, v := range vals {
			st.vals = append(st.vals, v/sum)
		}
	})
}

// WeightedRows is one term of a row-set weighted sum.
type WeightedRows struct {
	Scale float64
	Rows  *RowSet
}

// PatchWeightedSum returns a copy of r in which each row i listed in
// dirty is recomputed as Σ terms[t].Scale · row i of terms[t].Rows — one
// row of the integration TM = α·FM + β·DM + γ·UM (Eq. 7) — and every
// other row is copied verbatim. Terms with a zero scale are skipped
// entirely (absent evidence contributes nothing, as in
// Matrix.AddScaled), per-entry contributions accumulate in term order,
// and entries whose final value is exactly zero are dropped, matching
// the map path's zero-removing Set. dirty must be an ascending subset of
// r's ids; the terms must share r's dimension.
func (r *RowSet) PatchWeightedSum(dirty []int, terms []WeightedRows) (*RowSet, error) {
	live := terms[:0:0]
	for _, t := range terms {
		if t.Rows == nil {
			return nil, errors.New("sparse: PatchWeightedSum with nil row set")
		}
		if t.Rows.n != r.n {
			return nil, fmt.Errorf("sparse: dimension mismatch %d vs %d", r.n, t.Rows.n)
		}
		if t.Scale != 0 {
			live = append(live, t)
		}
	}
	var s *rowScratch
	if len(dirty) > 0 {
		s = newRowScratch(r.n)
	}
	return r.patch(dirty, func(i int, st *stage) {
		s.reset()
		for _, t := range live {
			cols, vals := t.Rows.row(i)
			for k, j := range cols {
				s.add(j, t.Scale*vals[k])
			}
		}
		st.cols, st.vals = s.collectTo(st.cols, st.vals, true)
	}), nil
}

// stage holds the rebuilt rows of one patch back to back.
type stage struct {
	cols []int32
	vals []float64
}

// patch is the one splice under Refreeze and PatchWeightedSum: build
// appends each dirty row's final entries to the stage, then the new set
// is laid out with clean rows copied from r in contiguous runs and the
// staged rows spliced in at their positions. Only the dirty rows cost
// per-row work; a clean run costs one copy and a pointer shift.
func (r *RowSet) patch(dirty []int, build func(i int, st *stage)) *RowSet {
	if len(dirty) == 0 {
		return r
	}
	pos := make([]int, len(dirty))
	stagePtr := make([]int32, len(dirty)+1)
	oldNNZ := 0
	k := 0
	for d, i := range dirty {
		for k < len(r.ids) && int(r.ids[k]) < i {
			k++
		}
		if k == len(r.ids) || int(r.ids[k]) != i {
			panic(fmt.Sprintf("sparse: dirty row %d is not an ascending member of the row set", i))
		}
		pos[d] = k
		oldNNZ += int(r.rowPtr[k+1] - r.rowPtr[k])
		k++
	}
	// Rebuilt rows mostly keep their size; a quarter of headroom saves
	// the stage a regrow when they grow a little.
	capHint := oldNNZ + oldNNZ/4
	st := &stage{cols: make([]int32, 0, capHint), vals: make([]float64, 0, capHint)}
	for d, i := range dirty {
		build(i, st)
		stagePtr[d+1] = int32(len(st.cols))
	}
	nnz := len(r.cols) - oldNNZ + len(st.cols)
	out := &RowSet{
		n:      r.n,
		ids:    r.ids,
		rowPtr: make([]int32, len(r.ids)+1),
		cols:   make([]int32, nnz),
		vals:   make([]float64, nnz),
	}
	at, from := int32(0), 0
	for d := 0; d <= len(dirty); d++ {
		end := len(r.ids)
		if d < len(dirty) {
			end = pos[d]
		}
		// Clean run [from, end): one copy, every offset shifted alike.
		lo, hi := r.rowPtr[from], r.rowPtr[end]
		copy(out.cols[at:], r.cols[lo:hi])
		copy(out.vals[at:], r.vals[lo:hi])
		for c := from; c < end; c++ {
			out.rowPtr[c+1] = r.rowPtr[c+1] - lo + at
		}
		at += hi - lo
		if d == len(dirty) {
			break
		}
		slo, shi := stagePtr[d], stagePtr[d+1]
		copy(out.cols[at:], st.cols[slo:shi])
		copy(out.vals[at:], st.vals[slo:shi])
		at += shi - slo
		out.rowPtr[end+1] = at
		from = end + 1
	}
	return out
}

// MergeRowSets assembles shard-frozen row sets into one n×n CSR. The
// sets must share the dimension n and own pairwise-disjoint row ids;
// rows owned by no set are empty. Each stored row is copied verbatim
// (no re-normalization), so the merge is a pure permutation-free
// concatenation and the result is independent of the order sets are
// passed in. A lone set that owns every row already has the CSR layout;
// the result then shares its (immutable) storage instead of copying it.
func MergeRowSets(n int, sets []*RowSet) (*CSR, error) {
	live := sets[:0:0]
	for _, s := range sets {
		if s == nil {
			continue
		}
		if s.n != n {
			return nil, fmt.Errorf("sparse: merging row set of dimension %d into %d", s.n, n)
		}
		live = append(live, s)
	}
	if len(live) == 1 && len(live[0].ids) == n {
		s := live[0]
		return &CSR{n: n, rowPtr: s.rowPtr, cols: s.cols, vals: s.vals}, nil
	}
	type piece struct {
		set *RowSet
		k   int // index within set
	}
	owner := make([]piece, n)
	for i := range owner {
		owner[i].k = -1
	}
	nnz := 0
	for _, s := range live {
		for k, id := range s.ids {
			if owner[id].k >= 0 {
				return nil, fmt.Errorf("sparse: row %d owned by two row sets", id)
			}
			owner[id] = piece{set: s, k: k}
			nnz += int(s.rowPtr[k+1] - s.rowPtr[k])
		}
	}
	c := &CSR{
		n:      n,
		rowPtr: make([]int32, n+1),
		cols:   make([]int32, nnz),
		vals:   make([]float64, nnz),
	}
	for i := 0; i < n; i++ {
		p := owner[i]
		c.rowPtr[i+1] = c.rowPtr[i]
		if p.k < 0 {
			continue
		}
		lo, hi := p.set.rowPtr[p.k], p.set.rowPtr[p.k+1]
		c.rowPtr[i+1] += hi - lo
		base := c.rowPtr[i]
		copy(c.cols[base:], p.set.cols[lo:hi])
		copy(c.vals[base:], p.set.vals[lo:hi])
	}
	return c, nil
}

// PartitionRows splits [0, n) into the ascending id lists owned by each
// of k shards under the owner function (typically the consistent-hash
// router of core.Sharded). It is a convenience for building the ids
// argument of NewRowSet.
func PartitionRows(n, k int, owner func(row int) int) ([][]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sparse: %d shards", k)
	}
	out := make([][]int, k)
	for i := 0; i < n; i++ {
		s := owner(i)
		if s < 0 || s >= k {
			return nil, fmt.Errorf("sparse: row %d routed to shard %d of %d", i, s, k)
		}
		out[s] = append(out[s], i)
	}
	for s := range out {
		if !sort.IntsAreSorted(out[s]) {
			sort.Ints(out[s])
		}
	}
	return out, nil
}
