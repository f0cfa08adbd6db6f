package quantify

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pnn/internal/baseline"
	"pnn/internal/dist"
	"pnn/internal/geom"
	"pnn/internal/workload"
)

// requireBitwise asserts two probability vectors agree bit for bit.
func requireBitwise(t *testing.T, got, want []float64, q geom.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("q=%v: len %d, want %d", q, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("q=%v: π_%d = %v, full integration %v", q, i, got[i], want[i])
		}
	}
}

// expectedScan is the unpruned expected-distance scan over every point.
func expectedScan(pts []dist.Continuous, q geom.Point, panels int) (int, float64) {
	best, bd := -1, math.Inf(1)
	for i, p := range pts {
		if e := ExpectedDistanceContinuous(p, q, panels); e < bd {
			best, bd = i, e
		}
	}
	return best, bd
}

func requirePrunedMatchesFull(t *testing.T, pts []dist.Continuous, q geom.Point, panels int) {
	t.Helper()
	want := baseline.IntegrateAll(pts, q, panels)
	got := IntegrateInto(pts, q, panels, make([]float64, len(pts)))
	requireBitwise(t, got, want, q)
	requireSparseMatchesDense(t, IntegratePositiveInto(pts, q, panels, nil), want)
	gi, gd := ExpectedNNContinuous(pts, q, panels)
	wi, wd := expectedScan(pts, q, panels)
	if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
		t.Fatalf("q=%v: pruned expected NN (%d, %v), full scan (%d, %v)", q, gi, gd, wi, wd)
	}
}

func TestIntegratePrunedMatchesFull(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	disks := workload.RandomDisks(r, 30, 40, 0.5, 3)
	for _, gauss := range []bool{false, true} {
		pts := make([]dist.Continuous, len(disks))
		for i, d := range disks {
			if gauss {
				pts[i] = dist.TruncatedGaussian{D: d, Sigma: d.R / 2}
			} else {
				pts[i] = dist.UniformDisk{D: d}
			}
		}
		qs := workload.QueryPoints(r, 10, workload.DisksBBox(disks))
		qs = append(qs, disks[0].C, disks[1].C.Add(geom.Pt(disks[1].R, 0)))
		for _, q := range qs {
			requirePrunedMatchesFull(t, pts, q, 32)
		}
	}
}

// A zero-radius point attaining Δ_min can never be reported (δ = Δ),
// but its cdf is what zeroes every other integrand beyond Δ_min: the
// candidate test must keep it (δ ≤ Δ_min, not δ < Δ_min).
func TestIntegratePrunedKeepsPointMass(t *testing.T) {
	pts := []dist.Continuous{
		dist.UniformDisk{D: geom.Dsk(3, 0, 2.5)},
		dist.UniformDisk{D: geom.Dsk(1, 0, 0)},
		dist.TruncatedGaussian{D: geom.Dsk(-2, 0.5, 1.5), Sigma: 0.7},
		dist.UniformDisk{D: geom.Dsk(20, 0, 1)},
	}
	for _, q := range []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 0.25), geom.Pt(2, 0)} {
		requirePrunedMatchesFull(t, pts, q, 64)
	}
	// With the point mass the Δ argmin, some other candidate has a
	// positive integrand only below Δ_min.
	pi := IntegrateInto(pts, geom.Pt(0, 0), 64, make([]float64, len(pts)))
	if pi[1] != 0 || pi[0] <= 0 || pi[3] != 0 {
		t.Fatalf("π = %v", pi)
	}
}

func TestExpectedDistanceClampedToSupport(t *testing.T) {
	// σ far below the panel width: Simpson misses the spike, but the
	// expectation must still land in [δ, Δ].
	g := dist.TruncatedGaussian{D: geom.Dsk(0, 0, 10), Sigma: 1e-3}
	q := geom.Pt(30, 0)
	e := ExpectedDistanceContinuous(g, q, 16)
	if e < 20 || e > 40 {
		t.Fatalf("E[d] = %v outside [20, 40]", e)
	}
}

// The candidate scratch is pooled; concurrent queries must not see each
// other's candidates.
func TestIntegrateConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	disks := workload.RandomDisks(r, 40, 30, 0.5, 3)
	pts := make([]dist.Continuous, len(disks))
	for i, d := range disks {
		pts[i] = dist.UniformDisk{D: d}
	}
	qs := workload.QueryPoints(r, 32, workload.DisksBBox(disks))
	want := make([][]IndexProb, len(qs))
	for k, q := range qs {
		want[k] = IntegratePositiveInto(pts, q, 16, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []IndexProb
			for k := range qs {
				k = (k + 7*g) % len(qs)
				if dst = IntegratePositiveInto(pts, qs[k], 16, dst); !reflect.DeepEqual(dst, want[k]) {
					t.Errorf("goroutine %d, q=%v: %v, want %v", g, qs[k], dst, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
