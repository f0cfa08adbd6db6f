package quantify

import (
	"sync"

	"pnn/internal/dist"
	"pnn/internal/geom"
)

// Output-sensitive Eq. (1) quadrature for continuous uncertain points.
//
// Lemma 2.1: π_i(q) > 0 only if δ_i(q) < min_j Δ_j(q), where δ and Δ are
// the minimum and maximum distances from q to the supports. Every
// integrand below is evaluated at radii r in [δ_i, Δ_i], and the
// candidate set
//
//	C(q) = {i : δ_i(q) ≤ Δ_min(q)},   Δ_min(q) = min_j Δ_j(q)
//
// makes restricting both the outer index i and the cdf product over j to
// C(q) exact, not approximate:
//
//   - for j ∉ C and r ≤ Δ_min < δ_j, G_{q,j}(r) = 0, so the dropped
//     factor 1 − G_{q,j}(r) is exactly 1 and multiplying by it is a
//     no-op;
//   - for r > Δ_min the argmin k of Δ (which is in C because δ_k ≤ Δ_k)
//     has G_{q,k}(r) = 1, so both the full and the pruned product are 0
//     (or, when k = i, the pdf g_{q,i}(r) is already 0);
//   - for i ∉ C every evaluation radius exceeds Δ_min, so π_i is exactly
//     0 in the full computation too.
//
// The comparison is non-strict on purpose: a zero-radius point attaining
// Δ_min has δ = Δ and can never be reported, but its cdf is the factor
// that zeroes the product beyond Δ_min, so it must stay in the product.
// The bounds come from the same SupportDisk().MinDist/MaxDist
// expressions the integrand's own interval uses, and the quadrature runs
// the same fixed-panel composite Simpson over the same [δ_i, Δ_i], so
// the results are bitwise equal to baseline.IntegrateAll (for finite
// inputs) at O(N + t²·panels) instead of O(N²·panels), t = |C(q)|.

// contScratch is the pooled working set of one pruned query: the
// candidate indices and their distance bounds, sized by t, never by N.
type contScratch struct {
	cand   []int
	lo, hi []float64
}

var contPool = sync.Pool{New: func() any { return new(contScratch) }}

// candidates fills sc with C(q) in increasing index order in one pass
// over pts: a point is kept while its δ does not exceed the running
// minimum of Δ (a superset of C(q), since that minimum only decreases),
// and the short list is then filtered against the final minimum.
func (sc *contScratch) candidates(pts []dist.Continuous, q geom.Point) {
	cand, lo, hi := sc.cand[:0], sc.lo[:0], sc.hi[:0]
	dmin := 0.0
	for i, p := range pts {
		sup := p.SupportDisk()
		d, D := sup.MinDist(q), sup.MaxDist(q)
		if i == 0 || D < dmin {
			dmin = D
		}
		if d <= dmin {
			cand, lo, hi = append(cand, i), append(lo, d), append(hi, D)
		}
	}
	n := 0
	for k, d := range lo {
		if d <= dmin {
			cand[n], lo[n], hi[n] = cand[k], d, hi[k]
			n++
		}
	}
	sc.cand, sc.lo, sc.hi = cand[:n], lo[:n], hi[:n]
}

// integrate evaluates Eq. (1) for candidate k (the k-th entry of sc.cand)
// with the cdf product restricted to the other candidates.
func (sc *contScratch) integrate(pts []dist.Continuous, q geom.Point, k, panels int) float64 {
	if panels < 8 {
		panels = 8
	}
	lo, hi := sc.lo[k], sc.hi[k]
	if hi <= lo {
		return 0
	}
	i := sc.cand[k]
	f := func(r float64) float64 {
		v := pts[i].DistPDF(q, r)
		if v == 0 {
			return 0
		}
		for _, j := range sc.cand {
			if j == i {
				continue
			}
			v *= 1 - pts[j].DistCDF(q, r)
			if v == 0 {
				return 0
			}
		}
		return v
	}
	return simpson(f, lo, hi, panels)
}

// IntegrateInto writes π(q) for every point into pi (length len(pts)),
// integrating Eq. (1) with the given panel count over the Lemma 2.1
// candidates only. The values are bitwise equal to
// baseline.IntegrateAll(pts, q, panels).
func IntegrateInto(pts []dist.Continuous, q geom.Point, panels int, pi []float64) []float64 {
	pi = pi[:len(pts)]
	clear(pi)
	sc := contPool.Get().(*contScratch)
	sc.candidates(pts, q)
	for k, i := range sc.cand {
		pi[i] = sc.integrate(pts, q, k, panels)
	}
	contPool.Put(sc)
	return pi
}

// IntegratePositiveInto appends the points with π_i(q) > 0 to dst
// (reused from its start) in increasing index order: the sparse form of
// IntegrateInto, which never touches an N-length vector.
func IntegratePositiveInto(pts []dist.Continuous, q geom.Point, panels int, dst []IndexProb) []IndexProb {
	dst = dst[:0]
	sc := contPool.Get().(*contScratch)
	sc.candidates(pts, q)
	for k, i := range sc.cand {
		if p := sc.integrate(pts, q, k, panels); p > 0 {
			dst = append(dst, IndexProb{I: i, P: p})
		}
	}
	contPool.Put(sc)
	return dst
}

// simpson is fixed-panel composite Simpson on [a, b] with n panels
// (rounded up to even).
func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	s := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 0 {
			s += 2 * f(x)
		} else {
			s += 4 * f(x)
		}
	}
	return s * h / 3
}
