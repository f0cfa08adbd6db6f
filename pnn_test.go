package pnn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pnn/internal/core"
	"pnn/internal/geom"
	"pnn/internal/quantify"
)

func randomDiskPoints(r *rand.Rand, n int) []DiskPoint {
	pts := make([]DiskPoint, n)
	for i := range pts {
		pts[i] = DiskPoint{
			Support: Disk{Center: Pt(r.Float64()*100, r.Float64()*100), R: 0.5 + r.Float64()*4},
		}
	}
	return pts
}

func randomDiscretePoints(r *rand.Rand, n, k int) []DiscretePoint {
	pts := make([]DiscretePoint, n)
	for i := range pts {
		cx, cy := r.Float64()*100, r.Float64()*100
		locs := make([]Point, k)
		w := make([]float64, k)
		sum := 0.0
		for t := range locs {
			locs[t] = Pt(cx+r.Float64()*6-3, cy+r.Float64()*6-3)
			w[t] = 0.5 + r.Float64()
			sum += w[t]
		}
		for t := range w {
			w[t] /= sum
		}
		pts[i] = DiscretePoint{Locations: locs, Weights: w}
	}
	return pts
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewContinuousSet(nil); err == nil {
		t.Fatal("empty continuous set must error")
	}
	if _, err := NewContinuousSet([]DiskPoint{{Support: Disk{R: -1}}}); err == nil {
		t.Fatal("negative radius must error")
	}
	if _, err := NewDiscreteSet(nil); err == nil {
		t.Fatal("empty discrete set must error")
	}
	if _, err := NewDiscreteSet([]DiscretePoint{{
		Locations: []Point{{0, 0}},
		Weights:   []float64{0.4},
	}}); err == nil {
		t.Fatal("weights not summing to 1 must error")
	}
	// nil weights mean uniform.
	s, err := NewDiscreteSet([]DiscretePoint{{Locations: []Point{{0, 0}, {1, 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 2 {
		t.Fatalf("K = %d", s.K())
	}
}

// mustNew builds a facade index or fails the test.
func mustNew(t testing.TB, set UncertainSet, opts ...Option) *Index {
	t.Helper()
	idx, err := New(set, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestPublicContinuousPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	set, err := NewContinuousSet(randomDiskPoints(r, 10))
	if err != nil {
		t.Fatal(err)
	}
	diag := mustNew(t, set, WithNonzeroBackend(BackendDiagram))
	ix := mustNew(t, set)
	for probe := 0; probe < 200; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		brute := core.NonzeroSet(set.disks, toGeom(q))
		// Diagram queries may differ on flattening-tolerance boundaries;
		// require the fast index to match brute exactly.
		if viaIx, _ := ix.Nonzero(q); !reflect.DeepEqual(brute, viaIx) {
			t.Fatalf("index disagrees with brute at %v: %v vs %v", q, viaIx, brute)
		}
		if _, err := diag.Nonzero(q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicDiscretePipeline(t *testing.T) {
	src := rand.NewSource(2)
	r := rand.New(src)
	set, err := NewDiscreteSet(randomDiscretePoints(r, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	ix := mustNew(t, set)
	for probe := 0; probe < 100; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		if got, _ := ix.Nonzero(q); !reflect.DeepEqual(got, core.NonzeroSetDiscrete(set.sups, toGeom(q))) {
			t.Fatalf("discrete index disagrees at %v", q)
		}
	}
	// Probabilities: exact vs spiral vs Monte Carlo.
	q := Pt(50, 50)
	exact, _ := ix.Probabilities(q)
	sum := 0.0
	for _, p := range exact {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σπ = %v", sum)
	}
	eps := 0.05
	approx, _ := mustNew(t, set, WithQuantifier(SpiralSearch(eps))).Probabilities(q)
	for i := range exact {
		if approx[i] > exact[i]+1e-9 || exact[i] > approx[i]+eps+1e-9 {
			t.Fatalf("spiral bound violated at %d: %v vs %v", i, approx[i], exact[i])
		}
	}
	est, _ := mustNew(t, set, WithQuantifier(MonteCarloBudget(3000)), WithRandSource(src)).Probabilities(q)
	for i := range exact {
		if math.Abs(est[i]-exact[i]) > 0.05 {
			t.Fatalf("MC estimate off at %d: %v vs %v", i, est[i], exact[i])
		}
	}
}

func TestPublicVPr(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	box := geom.BBox{MinX: -10, MinY: -10, MaxX: 110, MaxY: 110}
	if f := quantify.NewVPr(set.dists, box).Faces(); f < 2 {
		t.Fatalf("faces %d", f)
	}
	v := mustNew(t, set, WithQuantifier(VPrDiagram(box.MinX, box.MinY, box.MaxX, box.MaxY)))
	mismatches := 0
	for probe := 0; probe < 100; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		got, _ := v.Probabilities(q)
		want := quantify.ExactAll(set.dists, toGeom(q))
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				mismatches++
				break
			}
		}
	}
	if mismatches > 2 {
		t.Fatalf("V_Pr mismatches %d/100", mismatches)
	}
}

func TestPublicDiscreteDiagram(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	set, err := NewDiscreteSet(randomDiscretePoints(r, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	diag := mustNew(t, set, WithNonzeroBackend(BackendDiagram))
	errors := 0
	for probe := 0; probe < 100; probe++ {
		q := Pt(r.Float64()*100, r.Float64()*100)
		if got, _ := diag.Nonzero(q); !equalIntsPNN(got, core.NonzeroSetDiscrete(set.sups, toGeom(q))) {
			errors++
		}
	}
	if errors > 3 {
		t.Fatalf("diagram disagrees on %d/100 queries", errors)
	}
}

func TestGaussianDiskPoint(t *testing.T) {
	set, err := NewContinuousSet([]DiskPoint{
		{Support: Disk{Center: Pt(0, 0), R: 2}, Density: TruncatedGaussian, Sigma: 1},
		{Support: Disk{Center: Pt(10, 0), R: 2}, Density: TruncatedGaussian}, // default sigma
	})
	if err != nil {
		t.Fatal(err)
	}
	pi, _ := mustNew(t, set, WithIntegrationPanels(256)).Probabilities(Pt(5, 0))
	if math.Abs(pi[0]+pi[1]-1) > 1e-2 {
		t.Fatalf("Σπ = %v", pi[0]+pi[1])
	}
	if math.Abs(pi[0]-0.5) > 0.02 {
		t.Fatalf("symmetric Gaussians: π_0 = %v", pi[0])
	}
}

func TestSpreadAndRetrievalSize(t *testing.T) {
	set, err := NewDiscreteSet([]DiscretePoint{
		{Locations: []Point{{0, 0}, {1, 0}}, Weights: []float64{0.2, 0.8}},
		{Locations: []Point{{5, 5}, {6, 5}}, Weights: []float64{0.5, 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Spread(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("spread %v", got)
	}
	if quantify.NewSpiral(set.dists).M(0.1) < 2 {
		t.Fatal("retrieval size too small")
	}
}

func equalIntsPNN(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
