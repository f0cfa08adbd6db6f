// Package kdtree implements a static 2-d tree over points with payload
// indices. It provides the three queries the paper's algorithms need:
// nearest neighbor (Monte Carlo rounds, Section 4.2), k nearest neighbors
// (spiral search retrieval of the m(ρ,ε) closest locations, Section 4.3),
// and disk range reporting (stage 2 of the discrete NN≠0 structure,
// Section 3). Construction is by recursive median split; every node sorts
// its own range, so a build costs O(N log² N).
//
// k-NN answers follow the strict total order (d², ID): among locations
// at tied distance the smaller ID wins, both for which items are
// selected at the k-th distance and for their output order. Callers
// that merge answers across several trees (the dynamized spiral search
// in pnn) rely on this to reproduce one tree's answer exactly.
package kdtree

import (
	"math"
	"slices"
	"sync"

	"pnn/internal/geom"
)

// Item is a point with an opaque payload identifier.
type Item struct {
	P  geom.Point
	ID int
}

// Tree is an immutable 2-d tree. The zero value is an empty tree.
type Tree struct {
	items []Item // laid out in tree order
	nodes []node
	root  int
}

type node struct {
	lo, hi      int // items[lo:hi] in this subtree
	axis        int // 0 = x, 1 = y
	split       float64
	left, right int // node indices, -1 when leaf
	bbox        geom.BBox
}

const leafSize = 8

// Build constructs a tree over the items. The input slice is copied.
func Build(items []Item) *Tree {
	t := &Tree{items: append([]Item(nil), items...)}
	if len(t.items) == 0 {
		t.root = -1
		return t
	}
	t.root = t.build(0, len(t.items), 0)
	return t
}

func (t *Tree) build(lo, hi, depth int) int {
	bb := geom.EmptyBBox()
	for i := lo; i < hi; i++ {
		bb = bb.Extend(t.items[i].P)
	}
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{lo: lo, hi: hi, left: -1, right: -1, bbox: bb})
	if hi-lo <= leafSize {
		return idx
	}
	axis := depth % 2
	// Split on the wider dimension for balanced boxes.
	if bb.Width() < bb.Height() {
		axis = 1
	} else {
		axis = 0
	}
	mid := (lo + hi) / 2
	sub := t.items[lo:hi]
	// slices.SortFunc runs the same pdqsort as sort.Slice without the
	// reflection-based swapper, so the layout is unchanged and the build
	// about twice as fast.
	if axis == 0 {
		slices.SortFunc(sub, func(a, b Item) int { return compareCoord(a.P.X, b.P.X) })
	} else {
		slices.SortFunc(sub, func(a, b Item) int { return compareCoord(a.P.Y, b.P.Y) })
	}
	var split float64
	if axis == 0 {
		split = t.items[mid].P.X
	} else {
		split = t.items[mid].P.Y
	}
	left := t.build(lo, mid, depth+1)
	right := t.build(mid, hi, depth+1)
	t.nodes[idx].axis = axis
	t.nodes[idx].split = split
	t.nodes[idx].left = left
	t.nodes[idx].right = right
	return idx
}

// compareCoord orders by < alone, as the sort.Slice less function it
// replaces did (cmp.Compare would also order NaNs).
func compareCoord(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// Len returns the number of items.
func (t *Tree) Len() int { return len(t.items) }

// Nearest returns the item nearest to q and its distance. ok is false for
// an empty tree.
func (t *Tree) Nearest(q geom.Point) (Item, float64, bool) {
	if t.root < 0 {
		return Item{}, 0, false
	}
	best := Item{}
	bestD2 := infinity
	t.nearest(t.root, q, &best, &bestD2)
	return best, sqrtNonneg(bestD2), true
}

const infinity = 1e308

func (t *Tree) nearest(ni int, q geom.Point, best *Item, bestD2 *float64) {
	n := &t.nodes[ni]
	d := n.bbox.DistToPoint(q)
	if d*d > *bestD2 {
		return
	}
	if n.left < 0 {
		for i := n.lo; i < n.hi; i++ {
			if d2 := t.items[i].P.Dist2(q); d2 < *bestD2 {
				*bestD2 = d2
				*best = t.items[i]
			}
		}
		return
	}
	// Visit the side containing q first.
	var qc float64
	if n.axis == 0 {
		qc = q.X
	} else {
		qc = q.Y
	}
	first, second := n.left, n.right
	if qc > n.split {
		first, second = second, first
	}
	t.nearest(first, q, best, bestD2)
	t.nearest(second, q, best, bestD2)
}

// KNearest returns the k items nearest to q in increasing (d², ID)
// order. Fewer than k are returned when the tree is smaller.
func (t *Tree) KNearest(q geom.Point, k int) []Item {
	return t.KNearestInto(q, k, nil)
}

// KNearestInto is KNearest writing into dst (reused from its start,
// grown as needed): the caller-buffer variant for allocation-flat query
// loops. The bounded max-heap behind the search comes from an internal
// pool, so a warm query performs no heap allocation beyond growing dst
// once.
func (t *Tree) KNearestInto(q geom.Point, k int, dst []Item) []Item {
	return t.KNearestFilterInto(q, k, nil, dst)
}

// KNearestFilterInto is KNearestInto restricted to the items for which
// keep(ID) holds (nil keeps every item): the k nearest kept items in
// increasing (d², ID) order. Skipped items never enter the bounded heap,
// so the pruning bound tightens only on kept items.
func (t *Tree) KNearestFilterInto(q geom.Point, k int, keep func(id int) bool, dst []Item) []Item {
	dst = dst[:0]
	if t.root < 0 || k <= 0 {
		return dst
	}
	if k > len(t.items) {
		k = len(t.items)
	}
	hp := heapPool.Get().(*[]heapItem)
	h := (*hp)[:0]
	t.knearest(t.root, q, k, keep, &h)
	if cap(dst) < len(h) {
		dst = make([]Item, len(h))
	} else {
		dst = dst[:len(h)]
	}
	// Pop the max repeatedly, filling dst back to front, so dst ends in
	// increasing distance order.
	for i := len(h) - 1; i >= 0; i-- {
		dst[i] = h[0].it
		h[0] = h[i]
		h = h[:i]
		siftDown(h, 0)
	}
	*hp = h[:0]
	heapPool.Put(hp)
	return dst
}

type heapItem struct {
	it Item
	d2 float64
}

var heapPool = sync.Pool{New: func() any {
	s := make([]heapItem, 0, 64)
	return &s
}}

// after reports whether a follows b in the (d², ID) total order.
func (a heapItem) after(b heapItem) bool {
	return a.d2 > b.d2 || (a.d2 == b.d2 && a.it.ID > b.it.ID)
}

// heapPush appends it and restores the max-heap order on (d², ID). Manual sift
// instead of container/heap: the interface{} boxing there allocates on
// every push/pop, which dominated the k-NN hot path.
func heapPush(h *[]heapItem, it heapItem) {
	*h = append(*h, it)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !hh[i].after(hh[parent]) {
			break
		}
		hh[parent], hh[i] = hh[i], hh[parent]
		i = parent
	}
}

func siftDown(h []heapItem, i int) {
	for {
		big := i
		if l := 2*i + 1; l < len(h) && h[l].after(h[big]) {
			big = l
		}
		if r := 2*i + 2; r < len(h) && h[r].after(h[big]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

func (t *Tree) knearest(ni int, q geom.Point, k int, keep func(int) bool, h *[]heapItem) {
	n := &t.nodes[ni]
	// Prune only strictly beyond the heap's worst distance: an item tied
	// with it may still win on ID.
	if len(*h) == k && bboxDist2(n.bbox, q) > (*h)[0].d2 {
		return
	}
	if n.left < 0 {
		for i := n.lo; i < n.hi; i++ {
			if keep != nil && !keep(t.items[i].ID) {
				continue
			}
			hi := heapItem{t.items[i], t.items[i].P.Dist2(q)}
			if len(*h) < k {
				heapPush(h, hi)
			} else if (*h)[0].after(hi) {
				(*h)[0] = hi
				siftDown(*h, 0)
			}
		}
		return
	}
	var qc float64
	if n.axis == 0 {
		qc = q.X
	} else {
		qc = q.Y
	}
	first, second := n.left, n.right
	if qc > n.split {
		first, second = second, first
	}
	t.knearest(first, q, k, keep, h)
	t.knearest(second, q, k, keep, h)
}

// bboxDist2 is the squared distance from q to the box, computed with the
// same subtract-square-add steps as Point.Dist2 and no square root, so
// it never exceeds the Dist2 of any item inside the box — the exact
// lower bound the tie-aware k-NN pruning needs.
func bboxDist2(b geom.BBox, q geom.Point) float64 {
	dx := math.Max(0, math.Max(b.MinX-q.X, q.X-b.MaxX))
	dy := math.Max(0, math.Max(b.MinY-q.Y, q.Y-b.MaxY))
	return dx*dx + dy*dy
}

// InDisk appends to dst every item within (closed) distance r of q.
func (t *Tree) InDisk(q geom.Point, r float64, dst []Item) []Item {
	if t.root < 0 {
		return dst
	}
	return t.inDisk(t.root, q, r, r*r, dst)
}

func (t *Tree) inDisk(ni int, q geom.Point, r, r2 float64, dst []Item) []Item {
	n := &t.nodes[ni]
	if n.bbox.DistToPoint(q) > r {
		return dst
	}
	if n.bbox.MaxDistToPoint(q) <= r {
		// Whole subtree inside: report without further tests.
		for i := n.lo; i < n.hi; i++ {
			dst = append(dst, t.items[i])
		}
		return dst
	}
	if n.left < 0 {
		for i := n.lo; i < n.hi; i++ {
			if t.items[i].P.Dist2(q) <= r2 {
				dst = append(dst, t.items[i])
			}
		}
		return dst
	}
	dst = t.inDisk(n.left, q, r, r2, dst)
	dst = t.inDisk(n.right, q, r, r2, dst)
	return dst
}

func sqrtNonneg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
