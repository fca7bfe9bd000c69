package main

import "testing"

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name              string
		parents, children []interval
		want              int64
	}{
		{"no children", []interval{{0, 100}}, nil, 100},
		{"disjoint children", []interval{{0, 100}}, []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping children count once", []interval{{0, 100}}, []interval{{10, 30}, {20, 40}}, 70},
		{"nested children count once", []interval{{0, 100}}, []interval{{10, 60}, {20, 30}}, 50},
		{"child outside the parent counts only inside", []interval{{0, 100}}, []interval{{90, 150}, {-20, 5}}, 85},
		{"overlapping parents count once", []interval{{0, 60}, {40, 100}}, []interval{{50, 70}}, 80},
		{"children cover everything", []interval{{0, 100}}, []interval{{0, 50}, {50, 100}}, 0},
	} {
		if got := selfTime(tc.parents, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAnalyze checks that the layers of a request sum to its duration
// when spans of one layer overlap (two walk workers) and a deeper span
// sits inside another of its own layer (a forwarded RPC), and that each
// span's parent is the tightest enclosing span one level up.
func TestAnalyze(t *testing.T) {
	r := &recorder{}
	add := func(name string, depth int, req uint64, lo, hi int64) {
		r.spans = append(r.spans, span{Name: name, Depth: depth, Req: req, Start: lo, End: hi, Parent: -1})
	}
	add("op.estimate", depthOp, 1, 0, 100)
	add("walk.row", depthRow, 1, 10, 50)
	add("walk.row", depthRow, 1, 30, 70)
	add("dht.retrieve", depthRetrieve, 1, 20, 40)
	add("dht.rpc.find_successor", depthRPC, 1, 22, 38)
	add("dht.rpc.find_successor", depthRPC, 1, 25, 35) // forwarded hop
	add("op.estimate", depthOp, 2, 200, 210)
	add("dht.rpc.store", depthRPC, 0, 0, 1000) // outside any request
	tab := r.analyze()
	want := map[string]int64{"op": 40 + 10, "walk": 40, "dht": 20}
	for l, ns := range want {
		if tab.self[l] != ns {
			t.Errorf("self[%s] = %d, want %d", l, tab.self[l], ns)
		}
	}
	if tab.ops != 2 {
		t.Errorf("ops = %d, want 2", tab.ops)
	}
	wantParent := []int{-1, 0, 0, 1, 3, 3, -1, -1}
	for k, p := range wantParent {
		if r.spans[k].Parent != p {
			t.Errorf("span %d (%s) parent = %d, want %d", k, r.spans[k].Name, r.spans[k].Parent, p)
		}
	}
}
