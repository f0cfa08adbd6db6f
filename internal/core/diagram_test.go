package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pnn/internal/geom"
)

// randomDisjointishDisks places n disks with centers in [0,100]² and radii
// in [rmin, rmax]; overlaps are allowed (the diagram handles them).
func randomDisks(r *rand.Rand, n int, rmin, rmax float64) []geom.Disk {
	ds := make([]geom.Disk, n)
	for i := range ds {
		ds[i] = geom.Disk{
			C: geom.Pt(r.Float64()*100, r.Float64()*100),
			R: rmin + r.Float64()*(rmax-rmin),
		}
	}
	return ds
}

func TestNonzeroSetTwoDisks(t *testing.T) {
	disks := []geom.Disk{geom.Dsk(0, 0, 1), geom.Dsk(10, 0, 1)}
	// Query at the left disk's center: Δ = 1, δ_0 = 0 < 1, δ_1 = 9 > 1.
	got := NonzeroSet(disks, geom.Pt(0, 0))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("NN≠0 at left center: %v", got)
	}
	// Query in the middle: both are possible NNs.
	got = NonzeroSet(disks, geom.Pt(5, 0))
	if len(got) != 2 {
		t.Fatalf("NN≠0 at midpoint: %v", got)
	}
}

func TestGammaOnCurveIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		disks := randomDisks(r, 6, 1, 4)
		for i := range disks {
			g := BuildGamma(disks, i, GammaOptions{})
			for _, arc := range g.Arcs {
				for k := 1; k < 8; k++ {
					th := arc.Lo + (arc.Hi-arc.Lo)*float64(k)/8
					rr := arc.Eval(th)
					if math.IsInf(rr, 0) || rr > 1e4 {
						continue
					}
					x := arc.Point(disks[i].C, th)
					deltaI := disks[i].MinDist(x)
					delta := Delta(disks, x)
					if math.Abs(deltaI-delta) > 1e-6*(1+delta) {
						t.Fatalf("trial %d curve %d: δ_i=%v Δ=%v at %v (arc j=%d)",
							trial, i, deltaI, delta, x, arc.J)
					}
				}
			}
		}
	}
}

func TestGammaBreakpointBound(t *testing.T) {
	// Lemma 2.2: γ_i has at most 2n breakpoints.
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		n := 8 + r.Intn(8)
		disks := randomDisks(r, n, 0.5, 3)
		for i := range disks {
			g := BuildGamma(disks, i, GammaOptions{})
			if len(g.Breakpoints) > 2*n {
				t.Fatalf("γ_%d has %d breakpoints for n=%d (bound 2n)",
					i, len(g.Breakpoints), n)
			}
		}
	}
}

func TestGammaEmptyWhenDisksOverlap(t *testing.T) {
	// Two deeply overlapping disks: neither curve exists, and both points
	// are nonzero NNs of every query.
	disks := []geom.Disk{geom.Dsk(0, 0, 5), geom.Dsk(1, 0, 5)}
	for i := range disks {
		g := BuildGamma(disks, i, GammaOptions{})
		if len(g.Arcs) != 0 {
			t.Fatalf("γ_%d should be empty", i)
		}
	}
	got := NonzeroSet(disks, geom.Pt(50, 50))
	if len(got) != 2 {
		t.Fatalf("both should be nonzero NNs far away: %v", got)
	}
}

func TestTwoDisksNoVertices(t *testing.T) {
	disks := []geom.Disk{geom.Dsk(0, 0, 1), geom.Dsk(10, 0, 2)}
	d := BuildDiagram(disks, DiagramOptions{SkipSubdivision: true})
	if d.VertexCount() != 0 {
		t.Fatalf("two disks yield no arrangement vertices, got %d", d.VertexCount())
	}
	for _, g := range d.Gammas {
		if g.LogicalArcs() != 1 {
			t.Fatalf("each curve should be a single branch, got %d arcs", g.LogicalArcs())
		}
		if len(g.Breakpoints) != 0 {
			t.Fatalf("no breakpoints expected, got %d", len(g.Breakpoints))
		}
	}
}

func TestDiagramVerticesSatisfyTangency(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		disks := randomDisks(r, 7, 1, 5)
		d := BuildDiagram(disks, DiagramOptions{SkipSubdivision: true})
		for _, v := range d.Vertices {
			if !d.CheckVertex(v, 1e-5) {
				t.Fatalf("trial %d: vertex %+v fails tangency check", trial, v)
			}
		}
	}
}

func TestDiagramVertexKinds(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	disks := randomDisks(r, 8, 1, 4)
	d := BuildDiagram(disks, DiagramOptions{SkipSubdivision: true})
	if d.BreakpointCount()+d.CrossingCount() != d.VertexCount() {
		t.Fatal("vertex kind counts must partition the vertex set")
	}
}

// Without the subdivision a diagram only counts complexity, and Query
// falls back to the direct Lemma 2.1 evaluation.
func TestSkipSubdivisionFallback(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	disks := randomDisks(r, 8, 0.5, 4.5)
	d := BuildDiagram(disks, DiagramOptions{SkipSubdivision: true})
	if d.Sub != nil {
		t.Fatal("complexity-only diagram must not build faces")
	}
	q := geom.Pt(50, 50)
	if got, want := d.Query(q), NonzeroSet(disks, q); !slices.Equal(got, want) {
		t.Fatalf("fallback query %v, want %v", got, want)
	}
}

func TestSubdivisionAgainstBrute(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		disks := randomDisks(r, 8, 1, 6)
		d := BuildDiagram(disks, DiagramOptions{})
		if d.Sub == nil {
			t.Fatal("subdivision missing")
		}
		mismatch := 0
		for probe := 0; probe < 500; probe++ {
			q := geom.Pt(r.Float64()*140-20, r.Float64()*140-20)
			got := d.Query(q)
			want := NonzeroSet(disks, q)
			if !sameInts(got, want) {
				// Allow mismatches only for indices at the decision
				// boundary (δ_i ≈ Δ) — the flattening tolerance.
				delta := Delta(disks, q)
				for _, i := range diffInts(got, want) {
					margin := math.Abs(disks[i].MinDist(q) - delta)
					if margin > 1e-2*(1+delta) {
						t.Fatalf("trial %d: query %v: got %v want %v (index %d margin %v)",
							trial, q, got, want, i, margin)
					}
				}
				mismatch++
			}
		}
		if mismatch > 25 {
			t.Fatalf("too many boundary mismatches: %d/500", mismatch)
		}
	}
}

func TestSubdivisionOutOfBoxFallback(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	disks := randomDisks(r, 5, 1, 3)
	d := BuildDiagram(disks, DiagramOptions{})
	q := geom.Pt(1e6, 1e6)
	got := d.Query(q)
	want := NonzeroSet(disks, q)
	if !sameInts(got, want) {
		t.Fatalf("out-of-box query: got %v want %v", got, want)
	}
}

func TestQueryWithoutSubdivision(t *testing.T) {
	disks := []geom.Disk{geom.Dsk(0, 0, 1), geom.Dsk(10, 0, 1)}
	d := BuildDiagram(disks, DiagramOptions{SkipSubdivision: true})
	got := d.Query(geom.Pt(0, 0))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("fallback query: %v", got)
	}
}

func TestCrossGammasSymmetricPair(t *testing.T) {
	// Three equal disks at triangle corners: by symmetry each pair of
	// curves crosses, and every crossing satisfies δ_i = δ_j = Δ.
	disks := []geom.Disk{geom.Dsk(0, 0, 1), geom.Dsk(20, 0, 1), geom.Dsk(10, 17, 1)}
	d := BuildDiagram(disks, DiagramOptions{SkipSubdivision: true})
	if d.CrossingCount() == 0 {
		t.Fatal("triangle configuration must produce curve crossings")
	}
	for _, v := range d.Vertices {
		if v.Kind != Crossing {
			continue
		}
		di := disks[v.I].MinDist(v.P)
		dj := disks[v.J].MinDist(v.P)
		if math.Abs(di-dj) > 1e-6 {
			t.Fatalf("crossing %v: δ_i=%v δ_j=%v", v.P, di, dj)
		}
	}
}

func TestSubdivisionMemorySharing(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	disks := randomDisks(r, 8, 1, 5)
	d := BuildDiagram(disks, DiagramOptions{})
	faces := d.Sub.Faces()
	nodes := d.Sub.MemoryNodes()
	// Without persistence each face would store up to n elements:
	// nodes ≈ faces × |set|. With persistence, nodes grow roughly like
	// faces (one toggle per face) plus slab seeds.
	if faces > 100 && nodes > faces*12 {
		t.Fatalf("persistent sharing ineffective: %d nodes for %d faces", nodes, faces)
	}
}

func sameInts(a, b []int) bool {
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

// diffInts returns the symmetric difference of two sorted int slices.
func diffInts(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
