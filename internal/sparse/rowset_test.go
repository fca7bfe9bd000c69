package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randomRows(n int, seed int64) []map[int]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]map[int]float64, n)
	for i := range rows {
		if rng.Intn(5) == 0 {
			continue // leave some rows nil
		}
		rows[i] = make(map[int]float64)
		for c := rng.Intn(8); c > 0; c-- {
			rows[i][rng.Intn(n)] = rng.Float64()
		}
	}
	return rows
}

// rawRows serves map rows to Refreeze in slice form, columns ascending.
func rawRows(rows []map[int]float64) func(i int) ([]int32, []float64) {
	return func(i int) ([]int32, []float64) {
		if i >= len(rows) {
			return nil, nil
		}
		var cols []int32
		var vals []float64
		for _, j := range sortedCols(rows[i]) {
			cols = append(cols, int32(j))
			vals = append(vals, rows[i][j])
		}
		return cols, vals
	}
}

// freezeRows freezes the rows named by ids from map rows.
func freezeRows(t *testing.T, n int, ids []int, rows []map[int]float64) *RowSet {
	t.Helper()
	set, err := NewRowSet(n, ids)
	if err != nil {
		t.Fatal(err)
	}
	return set.Refreeze(ids, rawRows(rows))
}

// mustEqualCSR fails unless got and want have identical layout and
// bit-identical values.
func mustEqualCSR(t *testing.T, label string, want, got *CSR) {
	t.Helper()
	if !reflect.DeepEqual(got.rowPtr, want.rowPtr) || !reflect.DeepEqual(got.cols, want.cols) || len(got.vals) != len(want.vals) {
		t.Fatalf("%s: layout differs", label)
	}
	for k := range want.vals {
		if math.Float64bits(got.vals[k]) != math.Float64bits(want.vals[k]) {
			t.Fatalf("%s: value %d = %v, want %v", label, k, got.vals[k], want.vals[k])
		}
	}
}

// TestMergeMatchesFreeze is the bit-identity half of the shard-count
// invariance argument at the sparse layer: freezing each shard's rows
// separately and merging must reproduce FreezeNormalized byte for byte,
// for any partition.
func TestMergeMatchesFreeze(t *testing.T) {
	const n = 67
	rows := randomRows(n, 1)
	want := FreezeNormalized(n, rows)
	for _, k := range []int{1, 2, 3, 8} {
		ids, err := PartitionRows(n, k, func(row int) int { return (row * 2654435761) % k })
		if err != nil {
			t.Fatal(err)
		}
		sets := make([]*RowSet, k)
		for s := range sets {
			sets[s] = freezeRows(t, n, ids[s], rows)
		}
		got, err := MergeRowSets(n, sets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.rowPtr, want.rowPtr) ||
			!reflect.DeepEqual(got.cols, want.cols) ||
			!reflect.DeepEqual(got.vals, want.vals) {
			t.Fatalf("k=%d: merged CSR differs from direct freeze", k)
		}
	}
}

func TestMergeRejectsOverlapAndMismatch(t *testing.T) {
	rows := randomRows(8, 2)
	a := freezeRows(t, 8, []int{0, 1, 2}, rows)
	b := freezeRows(t, 8, []int{2, 3}, rows)
	if _, err := MergeRowSets(8, []*RowSet{a, b}); err == nil {
		t.Fatal("overlapping row sets merged without error")
	}
	c := freezeRows(t, 9, []int{3}, randomRows(9, 3))
	if _, err := MergeRowSets(8, []*RowSet{a, c}); err == nil {
		t.Fatal("dimension mismatch merged without error")
	}
}

func TestMergeLeavesUnownedRowsEmpty(t *testing.T) {
	rows := randomRows(10, 4)
	set := freezeRows(t, 10, []int{1, 4}, rows)
	got, err := MergeRowSets(10, []*RowSet{set})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if i == 1 || i == 4 {
			continue
		}
		if got.RowNNZ(i) != 0 {
			t.Fatalf("unowned row %d has %d entries", i, got.RowNNZ(i))
		}
	}
}

func TestPartitionRowsValidation(t *testing.T) {
	if _, err := PartitionRows(4, 0, func(int) int { return 0 }); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := PartitionRows(4, 2, func(int) int { return 5 }); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestRefreezeMatchesFreeze is the differential oracle of the patch-only
// re-freeze: over rounds of random dirty subsets — rows rewritten, grown,
// emptied, or given a sum of zero or less — a row set patched round
// after round must equal a full FreezeNormalized of the final rows byte
// for byte, whole or split across shards and merged.
func TestRefreezeMatchesFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 3} {
		const n = 53
		rows := randomRows(n, int64(10+k))
		ids, err := PartitionRows(n, k, func(row int) int { return row % k })
		if err != nil {
			t.Fatal(err)
		}
		sets := make([]*RowSet, k)
		for s := range sets {
			sets[s] = freezeRows(t, n, ids[s], rows)
		}
		for round := 0; round < 40; round++ {
			var dirty []int
			for i := 0; i < n; i++ {
				if rng.Intn(6) != 0 {
					continue
				}
				dirty = append(dirty, i)
				switch rng.Intn(5) {
				case 0:
					rows[i] = nil
				case 1:
					rows[i] = map[int]float64{rng.Intn(n): -rng.Float64()} // sum < 0
				case 2:
					j := rng.Intn(n)
					rows[i] = map[int]float64{j: 0.25, (j + 1) % n: -0.25} // sum == 0
				default:
					rows[i] = make(map[int]float64)
					for c := 1 + rng.Intn(9); c > 0; c-- {
						rows[i][rng.Intn(n)] = rng.Float64()
					}
				}
			}
			for s := range sets {
				var mine []int
				for _, i := range dirty {
					if i%k == s {
						mine = append(mine, i)
					}
				}
				sets[s] = sets[s].Refreeze(mine, rawRows(rows))
			}
			got, err := MergeRowSets(n, sets)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualCSR(t, fmt.Sprintf("k=%d round %d", k, round), FreezeNormalized(n, rows), got)
		}
	}
}

// TestPatchWeightedSumMatchesAddScaled checks the Eq. (7) integration
// row by row against the map path's AddScaled: a full patch from an
// empty set, then rounds of patches over random dirty rows after term
// rows change under them.
func TestPatchWeightedSumMatchesAddScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		terms := []*Matrix{randomMatrix(rng, n, 2), randomMatrix(rng, n, 2), randomMatrix(rng, n, 2)}
		weights := [3]float64{rng.Float64(), rng.Float64(), 0.2}
		if trial%3 == 0 {
			weights[1] = 0 // zero-weight terms must be skipped entirely
		}
		sets := make([]WeightedRows, 3)
		for d, m := range terms {
			sets[d] = WeightedRows{Scale: weights[d], Rows: freezeRows(t, n, all, m.rows)}
		}
		check := func(label string, tm *RowSet) {
			t.Helper()
			ref := New(n)
			for d, m := range terms {
				if err := ref.AddScaled(weights[d], m.Clone().RowNormalize()); err != nil {
					t.Fatal(err)
				}
			}
			got, err := MergeRowSets(n, []*RowSet{tm})
			if err != nil {
				t.Fatal(err)
			}
			mustEqualEntries(t, fmt.Sprintf("trial %d %s", trial, label), ref.Entries(), got.Entries())
		}
		empty, err := NewRowSet(n, all)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := empty.PatchWeightedSum(all, sets)
		if err != nil {
			t.Fatal(err)
		}
		check("full", tm)
		for round := 0; round < 5; round++ {
			var dirty []int
			for i := 0; i < n; i++ {
				if rng.Intn(3) != 0 {
					continue
				}
				dirty = append(dirty, i)
				d := rng.Intn(3)
				terms[d].rows[i] = map[int]float64{rng.Intn(n): rng.Float64(), rng.Intn(n): rng.Float64()}
				sets[d].Rows = sets[d].Rows.Refreeze([]int{i}, rawRows(terms[d].rows))
			}
			if tm, err = tm.PatchWeightedSum(dirty, sets); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("round %d", round), tm)
		}
	}
}

func TestRowSetErrors(t *testing.T) {
	for _, ids := range [][]int{{1, 1}, {2, 1}, {-1}, {4}} {
		if _, err := NewRowSet(4, ids); err == nil {
			t.Fatalf("ids %v accepted", ids)
		}
	}
	set, err := NewRowSet(4, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewRowSet(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.PatchWeightedSum([]int{0}, []WeightedRows{{1, other}}); err == nil {
		t.Fatal("PatchWeightedSum dimension mismatch accepted")
	}
	if _, err := set.PatchWeightedSum([]int{0}, []WeightedRows{{1, nil}}); err == nil {
		t.Fatal("PatchWeightedSum nil row set accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("refreeze of a row outside the set did not panic")
		}
	}()
	set.Refreeze([]int{1}, rawRows(nil))
}
