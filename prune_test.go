package pnn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pnn/internal/baseline"
	"pnn/internal/geom"
	"pnn/internal/quantify"
	"pnn/internal/workload"
)

// pruneSets builds continuous sets from every disk generator of
// datafile.Generate (same constructions, 12 points) under both densities.
func pruneSets(t *testing.T) []namedSet {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	gens := []struct {
		name  string
		disks []geom.Disk
	}{
		{"disks", workload.RandomDisks(r, 12, 25, 0.5, 3)},
		{"disjoint", workload.DisjointDisks(r, 12, 2)},
		{"lb-cubic", workload.LowerBoundCubic(12)},
		{"lb-cubic-equal", workload.LowerBoundCubicEqualRadii(12)},
		{"lb-quadratic", workload.LowerBoundQuadratic(12)},
	}
	var sets []namedSet
	for _, g := range gens {
		for _, density := range []Density{Uniform, TruncatedGaussian} {
			pts := make([]DiskPoint, len(g.disks))
			for i, d := range g.disks {
				pts[i] = DiskPoint{Support: Disk{Center: Pt(d.C.X, d.C.Y), R: d.R}, Density: density}
			}
			set, err := NewContinuousSet(pts)
			if err != nil {
				t.Fatal(err)
			}
			name := g.name + "/uniform"
			if density == TruncatedGaussian {
				name = g.name + "/gaussian"
			}
			sets = append(sets, namedSet{name, set})
		}
	}
	return sets
}

type namedSet struct {
	name string
	set  *ContinuousSet
}

// pruneQueries mixes random points with the degenerate ones: disk
// centres, points on support boundaries, and midpoints of centre pairs
// (equal-Δ ties wherever the radii match).
func pruneQueries(r *rand.Rand, pts []DiskPoint, random int) []Point {
	minX, minY, maxX, maxY := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		c, R := p.Support.Center, p.Support.R
		minX, minY = math.Min(minX, c.X-R), math.Min(minY, c.Y-R)
		maxX, maxY = math.Max(maxX, c.X+R), math.Max(maxY, c.Y+R)
	}
	var qs []Point
	for i := 0; i < random; i++ {
		qs = append(qs, Pt(minX+r.Float64()*(maxX-minX), minY+r.Float64()*(maxY-minY)))
	}
	for k := 0; k < 3; k++ {
		a, b := pts[r.Intn(len(pts))].Support, pts[r.Intn(len(pts))].Support
		qs = append(qs, a.Center, Pt(a.Center.X+a.R, a.Center.Y), Pt(a.Center.X, a.Center.Y-a.R),
			Pt((a.Center.X+b.Center.X)/2, (a.Center.Y+b.Center.Y)/2))
	}
	return qs
}

// expectedScanFull is the unpruned expected-distance scan.
func expectedScanFull(s *ContinuousSet, q Point, panels int) (int, float64) {
	best, bd := -1, math.Inf(1)
	for i, c := range s.conts {
		if e := quantify.ExpectedDistanceContinuous(c, toGeom(q), panels); e < bd {
			best, bd = i, e
		}
	}
	return best, bd
}

// fullN is the unpruned reference at one query point: Eq. (1)
// integrated for every point, and the expected-distance scan.
type fullN struct {
	q       Point
	pi      []float64
	expIdx  int
	expDist float64
}

func fullNAt(s *ContinuousSet, q Point, panels int) fullN {
	i, d := expectedScanFull(s, q, panels)
	return fullN{q, baseline.IntegrateAll(s.conts, toGeom(q), panels), i, d}
}

// requireMatchesFullN checks every Exact answer of ix against the
// full-N reference: Probabilities bit for bit, the sparse TopK,
// Threshold and PositiveProbabilities against the same vector, and
// ExpectedNN against the full scan.
func requireMatchesFullN(t *testing.T, ix quantifyingIndex, ref fullN) {
	t.Helper()
	q, want := ref.q, ref.pi
	got, err := ix.Probabilities(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("q=%v: π_%d = %v, full integration %v", q, i, got[i], want[i])
		}
	}
	if got, _ := ix.PositiveProbabilities(q, 0); !reflect.DeepEqual(got, toIndexProbs(quantify.Positive(want, 0))) {
		t.Fatalf("q=%v: positive %v", q, got)
	}
	if got, _ := ix.TopK(q, 3); !reflect.DeepEqual(got, toIndexProbs(quantify.TopK(want, 3))) {
		t.Fatalf("q=%v: topk %v", q, got)
	}
	var wantTh ThresholdResult
	for i, p := range want {
		if p > 0 && p >= 0.2 {
			wantTh.Certain = append(wantTh.Certain, i)
		}
	}
	if got, _ := ix.Threshold(q, 0.2); !reflect.DeepEqual(got, wantTh) {
		t.Fatalf("q=%v: threshold %+v, want %+v", q, got, wantTh)
	}
	gi, gd, err := ix.ExpectedNN(q)
	if err != nil {
		t.Fatal(err)
	}
	if gi != ref.expIdx || math.Float64bits(gd) != math.Float64bits(ref.expDist) {
		t.Fatalf("q=%v: expected NN (%d, %v), full scan (%d, %v)", q, gi, gd, ref.expIdx, ref.expDist)
	}
}

// quantifyingIndex is the query surface Index and DynamicIndex share.
type quantifyingIndex interface {
	Probabilities(Point) ([]float64, error)
	PositiveProbabilities(Point, float64) ([]IndexProb, error)
	TopK(Point, int) ([]IndexProb, error)
	Threshold(Point, float64) (ThresholdResult, error)
	ExpectedNN(Point) (int, float64, error)
}

// TestExactPrunedMatchesFullN: the Exact quantifier integrates only over
// the Lemma 2.1 candidates, and every answer must stay bitwise equal to
// integrating all N points, on every generator, both densities and every
// NN≠0 backend.
func TestExactPrunedMatchesFullN(t *testing.T) {
	const panels = 32
	r := rand.New(rand.NewSource(12))
	for _, ns := range pruneSets(t) {
		var refs []fullN
		for _, q := range pruneQueries(r, ns.set.points, 5) {
			refs = append(refs, fullNAt(ns.set, q, panels))
		}
		for _, b := range []NonzeroBackend{BackendIndex, BackendDirect, BackendDiagram} {
			ix, err := New(ns.set, WithNonzeroBackend(b), WithIntegrationPanels(panels))
			if err != nil {
				t.Fatalf("%s: %v", ns.name, err)
			}
			for _, ref := range refs {
				requireMatchesFullN(t, ix, ref)
			}
		}
	}
}

// The dynamic index answers quantification through a rebuilt static view
// over the survivors, so it inherits the pruning and must match the
// full-N integration over exactly those survivors.
func TestDynamicExactPrunedMatchesFullN(t *testing.T) {
	const panels = 32
	r := rand.New(rand.NewSource(13))
	d, err := NewDynamic(WithIntegrationPanels(panels))
	if err != nil {
		t.Fatal(err)
	}
	pts := randomDiskPoints(r, 24)
	var ids []PointID
	for i, p := range pts {
		if i%3 == 0 {
			p.Density = TruncatedGaussian
			pts[i] = p
		}
		id, err := d.InsertDisk(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var live []DiskPoint
	for i, id := range ids {
		if i%4 == 1 {
			if err := d.Delete(id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		live = append(live, pts[i])
	}
	set, err := NewContinuousSet(live)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range pruneQueries(r, live, 10) {
		requireMatchesFullN(t, d, fullNAt(set, q, panels))
	}
}
