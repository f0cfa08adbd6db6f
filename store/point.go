package store

import (
	"errors"
	"fmt"

	"pnn"
	"pnn/internal/datafile"
)

// Dataset kinds. They mirror datafile's kinds: a stored dataset is the
// mutable counterpart of a pnngen file.
const (
	KindDisks    = string(datafile.KindDisks)
	KindDiscrete = string(datafile.KindDiscrete)
)

// Point is one stored uncertain point: exactly one of Disk and
// Discrete is set, matching the dataset's kind. The shapes are the
// datafile JSON shapes, so stored points, pnngen files, and the HTTP
// mutation API all agree on what a point looks like.
type Point struct {
	Disk     *datafile.DiskJSON     `json:"disk,omitempty"`
	Discrete *datafile.DiscreteJSON `json:"discrete,omitempty"`
}

// kind returns the dataset kind the point belongs to, validating shape.
func (p Point) kind() (string, error) {
	switch {
	case p.Disk != nil && p.Discrete == nil:
		return KindDisks, nil
	case p.Discrete != nil && p.Disk == nil:
		return KindDiscrete, nil
	default:
		return "", errors.New("store: point must set exactly one of disk and discrete")
	}
}

// validate checks the point against its dataset kind, by building the
// pnn value it will become — the same validation a query engine would
// apply, paid once at the write path's door so the log never holds an
// unloadable point.
func (p Point) validate(kind string) error {
	k, err := p.kind()
	if err != nil {
		return err
	}
	if k != kind {
		return fmt.Errorf("store: %s point in a %s dataset: %w", k, kind, ErrKindMismatch)
	}
	switch k {
	case KindDisks:
		if p.Disk.R < 0 {
			return fmt.Errorf("store: negative disk radius %g", p.Disk.R)
		}
	case KindDiscrete:
		d := p.Discrete
		if len(d.X) == 0 || len(d.X) != len(d.Y) {
			return fmt.Errorf("store: discrete point needs matching non-empty x and y")
		}
		pt, err := discretePoint(*d)
		if err != nil {
			return err
		}
		if _, err := pnn.NewDiscreteSet([]pnn.DiscretePoint{pt}); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// DiskPoint converts one stored disk shape to the pnn value a query
// engine consumes — the exact conversion buildSet applies, exported so
// engines applying mutation deltas build identical points.
func DiskPoint(d datafile.DiskJSON) pnn.DiskPoint { return diskPoint(d) }

// DiscretePoint converts one stored discrete shape to its pnn value;
// see DiskPoint.
func DiscretePoint(d datafile.DiscreteJSON) (pnn.DiscretePoint, error) { return discretePoint(d) }

func diskPoint(d datafile.DiskJSON) pnn.DiskPoint {
	dp := pnn.DiskPoint{Support: pnn.Disk{Center: pnn.Pt(d.X, d.Y), R: d.R}}
	if d.Density == "gaussian" {
		dp.Density = pnn.TruncatedGaussian
		dp.Sigma = d.Sigma
	}
	return dp
}

func discretePoint(d datafile.DiscreteJSON) (pnn.DiscretePoint, error) {
	if len(d.X) != len(d.Y) || len(d.X) == 0 {
		return pnn.DiscretePoint{}, errors.New("store: discrete point has mismatched coordinates")
	}
	p := pnn.DiscretePoint{Weights: d.W}
	for t := range d.X {
		p.Locations = append(p.Locations, pnn.Pt(d.X[t], d.Y[t]))
	}
	return p, nil
}

// buildSet assembles the pnn set of a dataset's live points in id
// order; nil (with nil error) when there are no points.
func buildSet(kind string, pts []Point) (pnn.UncertainSet, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	switch kind {
	case KindDisks:
		out := make([]pnn.DiskPoint, len(pts))
		for i, p := range pts {
			out[i] = diskPoint(*p.Disk)
		}
		return pnn.NewContinuousSet(out)
	case KindDiscrete:
		out := make([]pnn.DiscretePoint, len(pts))
		for i, pt := range pts {
			p, err := discretePoint(*pt.Discrete)
			if err != nil {
				return nil, err
			}
			out[i] = p
		}
		return pnn.NewDiscreteSet(out)
	}
	return nil, fmt.Errorf("store: unknown kind %q", kind)
}
