package kdtree

import (
	"math/rand"
	"sort"
	"testing"

	"pnn/internal/geom"
)

func randomItems(r *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{P: geom.Pt(r.Float64()*100, r.Float64()*100), ID: i}
	}
	return items
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil)
	if tr.Len() != 0 {
		t.Fatal("len")
	}
	if _, _, ok := tr.Nearest(geom.Pt(0, 0)); ok {
		t.Fatal("nearest on empty tree")
	}
	if got := tr.KNearest(geom.Pt(0, 0), 3); got != nil {
		t.Fatal("knearest on empty tree")
	}
	if got := tr.InDisk(geom.Pt(0, 0), 10, nil); len(got) != 0 {
		t.Fatal("indisk on empty tree")
	}
}

func TestNearestAgainstBrute(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(500)
		items := randomItems(r, n)
		tr := Build(items)
		for probe := 0; probe < 50; probe++ {
			q := geom.Pt(r.Float64()*120-10, r.Float64()*120-10)
			got, gd, ok := tr.Nearest(q)
			if !ok {
				t.Fatal("nearest failed")
			}
			bestD := -1.0
			for _, it := range items {
				if d := it.P.Dist(q); bestD < 0 || d < bestD {
					bestD = d
				}
			}
			if gd > bestD+1e-9 {
				t.Fatalf("nearest distance %v, brute %v (got id %d)", gd, bestD, got.ID)
			}
		}
	}
}

func TestKNearestAgainstBrute(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(300)
		items := randomItems(r, n)
		tr := Build(items)
		for probe := 0; probe < 20; probe++ {
			q := geom.Pt(r.Float64()*100, r.Float64()*100)
			k := 1 + r.Intn(20)
			got := tr.KNearest(q, k)
			wantK := k
			if wantK > n {
				wantK = n
			}
			if len(got) != wantK {
				t.Fatalf("got %d items want %d", len(got), wantK)
			}
			// Check increasing order.
			for i := 1; i < len(got); i++ {
				if got[i-1].P.Dist(q) > got[i].P.Dist(q)+1e-12 {
					t.Fatal("results not sorted by distance")
				}
			}
			// Check against brute-force k-th distance.
			ds := make([]float64, n)
			for i, it := range items {
				ds[i] = it.P.Dist(q)
			}
			sort.Float64s(ds)
			if kd := got[len(got)-1].P.Dist(q); kd > ds[wantK-1]+1e-9 {
				t.Fatalf("kth distance %v, brute %v", kd, ds[wantK-1])
			}
		}
	}
}

func TestInDiskAgainstBrute(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(400)
		items := randomItems(r, n)
		tr := Build(items)
		for probe := 0; probe < 20; probe++ {
			q := geom.Pt(r.Float64()*100, r.Float64()*100)
			rad := r.Float64() * 30
			got := tr.InDisk(q, rad, nil)
			gotIDs := map[int]bool{}
			for _, it := range got {
				gotIDs[it.ID] = true
				if it.P.Dist(q) > rad+1e-9 {
					t.Fatalf("reported item outside disk")
				}
			}
			for _, it := range items {
				if it.P.Dist(q) <= rad && !gotIDs[it.ID] {
					t.Fatalf("missed item %d at distance %v ≤ %v", it.ID, it.P.Dist(q), rad)
				}
			}
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	items := []Item{
		{P: geom.Pt(1, 1), ID: 0},
		{P: geom.Pt(1, 1), ID: 1},
		{P: geom.Pt(1, 1), ID: 2},
		{P: geom.Pt(5, 5), ID: 3},
	}
	tr := Build(items)
	got := tr.InDisk(geom.Pt(1, 1), 0.5, nil)
	if len(got) != 3 {
		t.Fatalf("want 3 coincident items, got %d", len(got))
	}
	kn := tr.KNearest(geom.Pt(0, 0), 3)
	if len(kn) != 3 {
		t.Fatalf("knearest %d", len(kn))
	}
}

// TestKNearestTieOrder pins the (d², ID) total order on a lattice with
// many coincident and equidistant items: the selected set and its order
// must equal a brute-force sort by (d², ID), filtered or not.
func TestKNearestTieOrder(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	items := make([]Item, 400)
	for i := range items {
		items[i] = Item{P: geom.Pt(float64(r.Intn(7)), float64(r.Intn(7))), ID: i}
	}
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	tr := Build(items)
	odd := func(id int) bool { return id%2 == 1 }
	for probe := 0; probe < 60; probe++ {
		q := geom.Pt(float64(r.Intn(7)), float64(r.Intn(7)))
		k := 1 + r.Intn(80)
		for _, keep := range []func(int) bool{nil, odd} {
			var want []Item
			for _, it := range items {
				if keep == nil || keep(it.ID) {
					want = append(want, it)
				}
			}
			sort.Slice(want, func(i, j int) bool {
				di, dj := want[i].P.Dist2(q), want[j].P.Dist2(q)
				if di != dj {
					return di < dj
				}
				return want[i].ID < want[j].ID
			})
			if len(want) > k {
				want = want[:k]
			}
			got := tr.KNearestFilterInto(q, k, keep, nil)
			if len(got) != len(want) {
				t.Fatalf("q=%v k=%d: got %d items, want %d", q, k, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Fatalf("q=%v k=%d: position %d has ID %d, want %d", q, k, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

func BenchmarkNearest10k(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	tr := Build(randomItems(r, 10000))
	qs := make([]geom.Point, 1024)
	for i := range qs {
		qs[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Nearest(qs[i%len(qs)])
	}
}

func BenchmarkKNearest10k(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	tr := Build(randomItems(r, 10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNearest(geom.Pt(50, 50), 32)
	}
}
