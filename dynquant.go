package pnn

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"pnn/internal/dist"
	"pnn/internal/geom"
	"pnn/internal/kdtree"
	"pnn/internal/quantify"
)

// wireLive fills the live quantification surface for the kind just
// fixed by setKind, mirroring Index's build* wiring over the live
// arena. Quantifiers whose static preprocessing draws randomness (or a
// diagram) over the whole set leave the probability slots empty and set
// useView instead.
func (d *DynamicIndex) wireLive() {
	s := &d.live
	q := d.cfg.quant
	dists := func() []*dist.Discrete { return d.liveDists }
	conts := func() []dist.Continuous { return d.liveConts }
	switch d.kind {
	case dynContinuous:
		s.set = (*ContinuousSet)(nil)
		s.useExpectedContinuous(conts, d.cfg.panels)
		if q.kind == quantExact {
			s.useExactContinuous(conts, d.cfg.panels)
		} else {
			d.useView = true
		}
	case dynDiscrete:
		s.set = (*DiscreteSet)(nil)
		s.useExpectedDiscrete(dists)
		switch q.kind {
		case quantExact:
			s.useExactDiscrete(dists)
		case quantSpiral:
			d.spread = newLiveSpread()
			d.useBucketSpiral(q.eps)
		default:
			d.useView = true
		}
	case dynSquare:
		s.set = (*SquareSet)(nil)
	}
}

// addLive and removeLive keep the rank-ordered distributions, the
// spiral parameters and the surface's point count in step with
// liveSlots. The caller holds the write lock.
func (d *DynamicIndex) addLive(it *dynItem) {
	switch d.kind {
	case dynContinuous:
		d.liveConts = append(d.liveConts, it.dc)
	case dynDiscrete:
		d.liveDists = append(d.liveDists, it.dd)
		if d.spread != nil {
			d.spread.add(it.dd)
		}
	}
	d.live.n = len(d.liveSlots)
}

func (d *DynamicIndex) removeLive(rank int, it *dynItem) {
	switch d.kind {
	case dynContinuous:
		d.liveConts = slices.Delete(d.liveConts, rank, rank+1)
	case dynDiscrete:
		d.liveDists = slices.Delete(d.liveDists, rank, rank+1)
		if d.spread != nil {
			d.spread.remove(it.dd)
		}
	}
	d.live.n = len(d.liveSlots)
}

// probSurface returns the surface answering probability queries and the
// function releasing it: the live surface under the read lock, or the
// static view for the view-backed quantifiers. A nil surface means the
// index is empty (or the view failed to build, with err set).
func (d *DynamicIndex) probSurface() (*quantSurface, func(), error) {
	d.mu.RLock()
	if len(d.liveSlots) == 0 {
		d.mu.RUnlock()
		return nil, nil, nil
	}
	if !d.useView {
		return &d.live, d.mu.RUnlock, nil
	}
	d.mu.RUnlock()
	v, err := d.viewIndex()
	if v == nil {
		return nil, nil, err
	}
	return &v.quantSurface, func() {}, nil
}

// useBucketSpiral wires the dynamized spiral search into the live
// surface: the same Eq. (2) sweeps the static Spiral runs, over the
// locations spiralRetrieve merges from the buckets.
func (d *DynamicIndex) useBucketSpiral(eps float64) {
	s := &d.live
	s.eps = eps
	s.probsInto = func(p Point, pi []float64) []float64 {
		sc := dynSpiralPool.Get().(*dynSpiralScratch)
		gq := toGeom(p)
		pi = quantify.ExactSubsetInto(d.spiralRetrieve(gq, eps, sc), s.n, gq, pi)
		dynSpiralPool.Put(sc)
		return pi
	}
	s.probs = func(p Point) []float64 { return s.probsInto(p, make([]float64, s.n)) }
	s.sparseInto = func(p Point, dst []quantify.IndexProb) []quantify.IndexProb {
		sc := dynSpiralPool.Get().(*dynSpiralScratch)
		gq := toGeom(p)
		dst = quantify.ExactSubsetPositiveInto(d.spiralRetrieve(gq, eps, sc), gq, dst)
		dynSpiralPool.Put(sc)
		return dst
	}
}

// dynSpiralScratch pools the retrieval buffers of the dynamized spiral
// search: one bucket's k-NN answer, the merged candidates, and the m
// retrieved locations handed to the sweep.
type dynSpiralScratch struct {
	items []kdtree.Item
	cands []spiralCand
	sub   []quantify.Location
}

var dynSpiralPool = sync.Pool{New: func() any { return new(dynSpiralScratch) }}

// spiralCand is one retrieved live location, keyed by the total order
// (d², rank, location index) of a static Spiral's kd-tree over the
// survivors, whose item IDs enumerate locations in exactly that order.
type spiralCand struct {
	d2   float64
	rank int
	t    int
	p    geom.Point
}

// spiralRetrieve returns the m(ρ,ε) live locations nearest q, owned by
// rank and in increasing (d², rank, location) order — the locations and
// the order a fresh static Spiral over the survivors retrieves, so the
// sweeps over them are bitwise identical. Each bucket contributes its m
// nearest live locations (every bucket's tree orders ties by
// (d², member, location), which agrees with the global order because
// members are rank-ordered within a bucket); the union holds the global
// m nearest. The caller holds the read lock; the result aliases sc.
func (d *DynamicIndex) spiralRetrieve(q geom.Point, eps float64, sc *dynSpiralScratch) []quantify.Location {
	m := quantify.SpiralM(d.spread.rho(), d.spread.maxK, d.spread.locs, eps)
	sc.cands = sc.cands[:0]
	for _, b := range d.tracker.Buckets() {
		locs := b.Data.(*discBucket).locs
		var keep func(int) bool
		if b.Dead > 0 {
			keep = func(l int) bool { return d.tracker.Alive(b.Slots[l]) }
		}
		sc.items = locs.KNearestInto(q, m, keep, sc.items[:0])
		for _, it := range sc.items {
			l, t := locs.Loc(it.ID)
			rank, _ := slices.BinarySearch(d.liveSlots, b.Slots[l])
			sc.cands = append(sc.cands, spiralCand{d2: it.P.Dist2(q), rank: rank, t: t, p: it.P})
		}
	}
	slices.SortFunc(sc.cands, func(a, b spiralCand) int {
		if c := cmp.Compare(a.d2, b.d2); c != 0 {
			return c
		}
		if a.rank != b.rank {
			return cmp.Compare(a.rank, b.rank)
		}
		return cmp.Compare(a.t, b.t)
	})
	sc.sub = sc.sub[:0]
	for _, c := range sc.cands[:min(m, len(sc.cands))] {
		sc.sub = append(sc.sub, quantify.Location{Owner: c.rank, P: c.p, W: d.liveDists[c.rank].W[c.t]})
	}
	return sc.sub
}

// liveSpread maintains, over the live discrete points, the three inputs
// of the spiral retrieval size m(ρ,ε) — the spread ρ of location
// probabilities, the maximum description complexity k, and the location
// count — with the values quantify.NewSpiral computes over a static set.
// Multiset counts make a delete O(k) unless it removes the last copy of
// the current extreme, which rescans the distinct values.
type liveSpread struct {
	weights    map[float64]int // live location weight → multiplicity
	ks         map[int]int     // live point k → multiplicity
	wmin, wmax float64
	maxK, locs int
}

func newLiveSpread() *liveSpread {
	return &liveSpread{weights: make(map[float64]int), ks: make(map[int]int), wmin: math.Inf(1)}
}

func (s *liveSpread) add(p *dist.Discrete) {
	for _, w := range p.W {
		s.weights[w]++
		s.wmin = math.Min(s.wmin, w)
		s.wmax = math.Max(s.wmax, w)
	}
	s.ks[p.K()]++
	s.maxK = max(s.maxK, p.K())
	s.locs += p.K()
}

func (s *liveSpread) remove(p *dist.Discrete) {
	rescan := false
	for _, w := range p.W {
		if s.weights[w]--; s.weights[w] == 0 {
			delete(s.weights, w)
			rescan = rescan || w == s.wmin || w == s.wmax
		}
	}
	if rescan {
		s.wmin, s.wmax = math.Inf(1), 0
		for w := range s.weights {
			s.wmin = math.Min(s.wmin, w)
			s.wmax = math.Max(s.wmax, w)
		}
	}
	k := p.K()
	if s.ks[k]--; s.ks[k] == 0 {
		delete(s.ks, k)
		if k == s.maxK {
			s.maxK = 0
			for kk := range s.ks {
				s.maxK = max(s.maxK, kk)
			}
		}
	}
	s.locs -= k
}

// rho returns ρ = w_max / w_min, or 1 when some weight is zero — the
// convention of quantify.NewSpiral.
func (s *liveSpread) rho() float64 {
	if s.wmin > 0 {
		return s.wmax / s.wmin
	}
	return 1
}
