package quantify

import (
	"math"
	"math/rand"

	"pnn/internal/dist"
	"pnn/internal/geom"
)

// Expected-distance nearest neighbors — the alternative NN definition of
// the companion paper [AESZ12] that Section 1.2 contrasts with
// quantification probabilities: rank points by E[d(q, P_i)] and return the
// minimizer. The expected distance of each point is computed separately
// (no interaction between points), which is what makes it cheap — and what
// makes it a poor indicator under large uncertainty ([YTX+10]); the
// ExpectedVsProbability experiment demonstrates the divergence.

// ExpectedDistanceDiscrete returns E[d(q, P)] = Σ_t w_t · d(q, p_t).
func ExpectedDistanceDiscrete(p *dist.Discrete, q geom.Point) float64 {
	e := 0.0
	for t, loc := range p.Locs {
		e += p.W[t] * loc.Dist(q)
	}
	return e
}

// ExpectedDistanceContinuous returns E[d(q, P)] = ∫ r·g_q(r) dr over the
// support by Simpson quadrature with the given panel count. The value is
// clamped to the support's distance range [δ(q), Δ(q)], where the true
// expectation always lies; the clamp only bites when the quadrature
// itself is badly off (a density too peaked for the panel count), and it
// is what lets ExpectedNNContinuous skip points by their bounds alone.
func ExpectedDistanceContinuous(p dist.Continuous, q geom.Point, panels int) float64 {
	if panels < 16 {
		panels = 16
	}
	sup := p.SupportDisk()
	lo := sup.MinDist(q)
	hi := sup.MaxDist(q)
	if hi <= lo {
		return lo
	}
	e := simpson(func(r float64) float64 { return r * p.DistPDF(q, r) }, lo, hi, panels)
	if e < lo {
		e = lo
	}
	if e > hi {
		e = hi
	}
	return e
}

// ExpectedNNDiscrete returns the index minimizing the expected distance
// and the minimum value.
func ExpectedNNDiscrete(pts []*dist.Discrete, q geom.Point) (int, float64) {
	best, bd := -1, math.Inf(1)
	for i, p := range pts {
		if e := ExpectedDistanceDiscrete(p, q); e < bd {
			best, bd = i, e
		}
	}
	return best, bd
}

// ExpectedNNContinuous returns the index minimizing the expected distance
// (the first such index on ties) and the minimum. Only the Lemma 2.1
// candidates C(q) = {i : δ_i ≤ Δ_min} are integrated: a point outside
// has E_i ≥ δ_i > Δ_min ≥ E_k for the argmin k of Δ, so it can neither
// attain nor tie the minimum, and the answer equals the full scan's.
func ExpectedNNContinuous(pts []dist.Continuous, q geom.Point, panels int) (int, float64) {
	best, bd := -1, math.Inf(1)
	sc := contPool.Get().(*contScratch)
	sc.candidates(pts, q)
	for _, i := range sc.cand {
		if e := ExpectedDistanceContinuous(pts[i], q, panels); e < bd {
			best, bd = i, e
		}
	}
	contPool.Put(sc)
	return best, bd
}

// Threshold queries — the [DYM+05] variant from Section 1.2: report every
// point whose quantification probability meets a threshold τ. Built on
// spiral search, the one-sided guarantee π̂ ≤ π ≤ π̂ + ε certifies
// membership classes without exact computation.

// ThresholdResult classifies points against a probability threshold.
type ThresholdResult struct {
	// Certain are indices with π̂_i ≥ τ, hence certainly π_i ≥ τ.
	Certain []int
	// Possible are indices with π̂_i < τ ≤ π̂_i + ε: the estimator cannot
	// decide at this ε; callers can re-query with smaller ε or fall back
	// to the exact sweep for just these.
	Possible []int
}

// Threshold reports all points with π_i(q) ≥ tau, classified into certain
// and undecidable-at-ε, in one spiral query.
func (s *Spiral) Threshold(q geom.Point, tau, eps float64) ThresholdResult {
	pi := s.Estimate(q, eps)
	var res ThresholdResult
	for i, p := range pi {
		switch {
		case p >= tau:
			res.Certain = append(res.Certain, i)
		case p+eps >= tau:
			res.Possible = append(res.Possible, i)
		}
	}
	return res
}

// SpiralContinuous extends spiral search to continuous distributions —
// open problem (iii) of the paper — by the discretization route of
// Lemma 4.4: sample m locations from each pdf (uniform weights), then run
// the discrete machinery. With m = k(α) samples per point the additional
// error is at most nα with probability 1 − δ', so Estimate's total error
// bound becomes ε + nα one-sided-ish (the sampling error is two-sided).
type SpiralContinuous struct {
	*Spiral
	// SamplesPerPoint is the m used in the discretization.
	SamplesPerPoint int
}

// NewSpiralContinuous discretizes each continuous point with
// samplesPerPoint draws and builds the spiral structure over the result.
func NewSpiralContinuous(pts []dist.Continuous, samplesPerPoint int, rng *rand.Rand) *SpiralContinuous {
	if samplesPerPoint < 1 {
		samplesPerPoint = 1
	}
	disc := make([]*dist.Discrete, len(pts))
	for i, p := range pts {
		disc[i] = dist.DiscretizeContinuous(p, samplesPerPoint, rng)
	}
	return &SpiralContinuous{Spiral: NewSpiral(disc), SamplesPerPoint: samplesPerPoint}
}
