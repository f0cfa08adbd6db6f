package engine

import (
	"errors"
	"testing"

	"pnn"
	"pnn/internal/datafile"
	"pnn/store"
)

func disk(x, y float64) store.Point {
	return store.Point{Disk: &datafile.DiskJSON{X: x, Y: y, R: 1}}
}

func buildDynamic(t *testing.T) *Dynamic {
	t.Helper()
	e, err := BuildDynamic([]uint64{1, 2}, []store.Point{disk(0, 0), disk(5, 5)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDynamicApplyUnknownDeleteRequiresRebuild(t *testing.T) {
	e := buildDynamic(t)
	err := e.Apply([]store.DeltaOp{{Seq: 3, Deleted: 99}})
	if !errors.Is(err, ErrRebuildRequired) {
		t.Fatalf("delete of an unknown id: %v, want ErrRebuildRequired", err)
	}
}

func TestDynamicApplyMalformedOp(t *testing.T) {
	e := buildDynamic(t)
	err := e.Apply([]store.DeltaOp{{Seq: 3, IDs: []uint64{3, 4}, Points: []store.Point{disk(1, 1)}}})
	if err == nil || errors.Is(err, ErrRebuildRequired) {
		t.Fatalf("2 ids for 1 point: %v, want a plain error", err)
	}
}

func TestStaticApply(t *testing.T) {
	set, err := pnn.NewContinuousSet([]pnn.DiskPoint{{Support: pnn.Disk{Center: pnn.Pt(0, 0), R: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pnn.New(set)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStatic(ix)
	if err := s.Apply(nil); err != nil {
		t.Fatalf("Apply(nil) = %v, want nil", err)
	}
	for _, op := range []store.DeltaOp{
		{Seq: 2, IDs: []uint64{2}, Points: []store.Point{disk(1, 1)}},
		{Seq: 2, Deleted: 1},
	} {
		if err := s.Apply([]store.DeltaOp{op}); !errors.Is(err, ErrRebuildRequired) {
			t.Fatalf("Apply(%+v) = %v, want ErrRebuildRequired", op, err)
		}
	}
}

func TestBuildDynamicLengthMismatch(t *testing.T) {
	if _, err := BuildDynamic([]uint64{1}, []store.Point{disk(0, 0), disk(1, 1)}, nil); err == nil {
		t.Fatal("BuildDynamic accepted 1 id for 2 points")
	}
}
