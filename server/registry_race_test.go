package server

import (
	"fmt"
	"sync"
	"testing"

	"pnn"
	"pnn/store"
)

// TestRegistryConcurrentMutations hammers Add/Upsert/Remove/Get/Names/
// Stats from many goroutines — run under -race (the CI
// race job covers ./server/...). Before the registry grew its RWMutex,
// Add was startup-only and any in-flight Get raced the first mutation.
func TestRegistryConcurrentMutations(t *testing.T) {
	set, err := pnn.NewDiscreteSet([]pnn.DiscretePoint{
		{Locations: []pnn.Point{pnn.Pt(1, 2)}},
		{Locations: []pnn.Point{pnn.Pt(3, 4)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	const names = 8
	name := func(i int) string { return fmt.Sprintf("ds%d", i%names) }

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // writers: add/upsert/remove the same few names
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch i % 3 {
				case 0:
					_ = reg.Add(name(i+g), set) // duplicate errors expected
				case 1:
					reg.Upsert(store.DatasetInfo{Name: name(i + g), Kind: "discrete", N: 2, Version: uint64(i + 2)})
				default:
					reg.Remove(name(i + g))
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // readers: Get/Names/Stats/Len concurrently
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if d := reg.Get(name(i + g)); d != nil {
					if n, _ := d.Stats(); n != 2 {
						t.Errorf("torn stats: n %d", n)
					}
					if s := d.Set(); s != nil && s.Len() != 2 {
						t.Errorf("torn set: len %d", s.Len())
					}
					_ = d.Indexes()
				}
				if i%50 == 0 {
					ns := reg.Names()
					for j := 1; j < len(ns); j++ {
						if ns[j-1] >= ns[j] {
							t.Errorf("Names() unsorted: %v", ns)
						}
					}
					_ = reg.Len()
				}
			}
		}(g)
	}
	wg.Wait()

	// Upserts must stay monotone: a stale version never overwrites a
	// newer one.
	reg2 := NewRegistry()
	reg2.Upsert(store.DatasetInfo{Name: "m", Kind: "discrete", N: 2, Version: 5})
	reg2.Upsert(store.DatasetInfo{Name: "m", Kind: "discrete", N: 9, Version: 3}) // stale: ignored
	if n, v := reg2.Get("m").Stats(); n != 2 || v != 5 {
		t.Fatalf("stale upsert applied: n %d version %d", n, v)
	}
	reg2.Upsert(store.DatasetInfo{Name: "m", Kind: "discrete", N: 0, Version: 7})
	if n, v := reg2.Get("m").Stats(); n != 0 || v != 7 {
		t.Fatalf("fresh upsert ignored: n %d version %d", n, v)
	}
	// A durable reset replaces a static entry of the same name.
	if err := reg2.Add("s", set); err != nil {
		t.Fatal(err)
	}
	reg2.Upsert(store.DatasetInfo{Name: "s", Kind: "discrete", N: 1, Version: 4})
	if d := reg2.Get("s"); !d.Durable() || d.Set() != nil || d.Len() != 1 {
		t.Fatalf("static entry survived a durable upsert: durable %v len %d", d.Durable(), d.Len())
	}
}

// TestUpsertKindChange pins the drop+recreate semantics of Upsert: a
// newer version under a different kind replaces the entry wholesale
// (Kind never changes in place), while a stale reset carrying the
// pre-recreate kind must not relabel — or replace — the current
// dataset. A same-kind reset keeps the entry object.
func TestUpsertKindChange(t *testing.T) {
	reg := NewRegistry()
	info := func(kind string, version uint64) store.DatasetInfo {
		return store.DatasetInfo{Name: "d", Kind: kind, Version: version}
	}
	reg.Upsert(info("discrete", 5))
	first := reg.Get("d")
	reg.Upsert(info("disks", 8)) // the refresh that saw the recreate
	recreated := reg.Get("d")
	if recreated == first || recreated.Kind != "disks" || recreated.Version() != 8 {
		t.Fatalf("recreate not applied: kind %q version %d", recreated.Kind, recreated.Version())
	}
	reg.Upsert(info("discrete", 7)) // stale refresh from before the drop
	if d := reg.Get("d"); d != recreated || d.Kind != "disks" || d.Version() != 8 {
		t.Fatalf("stale old-kind refresh relabeled the dataset: kind %q version %d", d.Kind, d.Version())
	}
	reg.Upsert(info("disks", 9)) // same kind resets in place
	if d := reg.Get("d"); d != recreated || d.Kind != "disks" || d.Version() != 9 {
		t.Fatalf("same-kind upsert lost: kind %q version %d", d.Kind, d.Version())
	}
}

// TestUpsertKindChangeConcurrent hammers one name with concurrent
// Upserts across two kinds. Every version is distinct, and both the
// same-kind and kind-change paths ignore non-newer versions, so the
// registry must converge to the globally newest version's (kind,
// version) regardless of interleaving — a lost update (e.g. a
// same-kind caller applying to an entry a concurrent kind-change
// already detached from the map) would strand an older version.
func TestUpsertKindChangeConcurrent(t *testing.T) {
	reg := NewRegistry()
	const n = 200
	var wg sync.WaitGroup
	for v := 1; v <= n; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			kind := "discrete"
			if v%3 == 0 {
				kind = "disks"
			}
			reg.Upsert(store.DatasetInfo{Name: "d", Kind: kind, Version: uint64(v)})
		}(v)
	}
	wg.Wait()
	wantKind := "discrete"
	if n%3 == 0 {
		wantKind = "disks"
	}
	if d := reg.Get("d"); d.Version() != n || d.Kind != wantKind {
		t.Fatalf("converged to kind %q version %d, want %q %d", d.Kind, d.Version(), wantKind, n)
	}
}
