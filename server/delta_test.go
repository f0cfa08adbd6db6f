package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"pnn/api"
	"pnn/internal/datafile"
	"pnn/server/engine"
	"pnn/store"
)

// TestDeltaPathMatchesStaticRebuild is the write-path equivalence
// property: a server serving mutations through the delta path (dynamic
// engines, ops folded in place) must answer every query bitwise
// identically to a fresh static pnn.Index built from store.View after
// every mutation. The server sees a seeded random interleaving of
// inserts and deletes over HTTP; after each mutation every facade op is
// compared at several query points, across set kinds and quantifier
// methods, against a no-store server hosting that View. At the end the
// test verifies the comparison was not vacuous: the server must
// actually have folded deltas into a live engine.
func TestDeltaPathMatchesStaticRebuild(t *testing.T) {
	cases := []struct {
		name string
		kind string
		qs   string // extra query parameters selecting the method
	}{
		{"discrete-exact", "discrete", ""},
		{"discrete-spiral", "discrete", "&method=spiral&eps=0.1"},
		{"disks-exact", "disks", ""},
		{"disks-mc", "disks", "&method=mc&eps=0.2&delta=0.2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deltaEquivalence(t, tc.kind, tc.qs)
		})
	}
}

// mustMutate sends one authenticated mutation and requires a 200.
func mustMutate(t *testing.T, hs *httptest.Server, method, path string, body any) api.Mutation {
	t.Helper()
	status, raw := adminDo(t, hs, method, path, body, testToken)
	if status != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, path, status, raw)
	}
	return decodeMutation(t, raw)
}

// randomInsert draws n random points of the given kind.
func randomInsert(rng *rand.Rand, kind string, n int) api.InsertPoints {
	var req api.InsertPoints
	for i := 0; i < n; i++ {
		if kind == "disks" {
			req.Disks = append(req.Disks, api.DiskPointJSON{
				X: rng.Float64() * 10, Y: rng.Float64() * 10, R: rng.Float64() * 2,
			})
			continue
		}
		locs := 1 + rng.Intn(2)
		var p api.DiscretePointJSON
		for l := 0; l < locs; l++ {
			p.X = append(p.X, rng.Float64()*10)
			p.Y = append(p.Y, rng.Float64()*10)
		}
		req.Discrete = append(req.Discrete, p)
	}
	return req
}

// assertMatchesStatic compares every facade op at a few query points
// (some inside the cloud, some at its edge; k and tau exercise ranking
// and cutoff paths) between the store-backed server hs and a fresh
// no-store server hosting a static index over st.View(name). Bodies
// must be byte-identical.
func assertMatchesStatic(t *testing.T, hs *httptest.Server, st *store.Store, name, qs, step string) {
	t.Helper()
	_, set, err := st.View(name)
	if err != nil {
		t.Fatalf("%s: store view: %v", step, err)
	}
	reg := NewRegistry()
	if err := reg.Add(name, set); err != nil {
		t.Fatalf("%s: oracle registry: %v", step, err)
	}
	oracle := New(reg, Config{})
	ohs := httptest.NewServer(oracle.Handler())
	defer func() { ohs.Close(); oracle.Close() }()
	for _, op := range api.Ops {
		for _, pt := range []string{"x=2&y=3", "x=9.5&y=0.5"} {
			path := fmt.Sprintf("/v1/%s?dataset=%s&%s%s", op, name, pt, qs)
			switch op {
			case "topk":
				path += "&k=3"
			case "threshold":
				path += "&tau=0.2"
			}
			ds, _, dbody := getBody(t, hs, path)
			ss, _, sbody := getBody(t, ohs, path)
			if ds != ss {
				t.Fatalf("%s: GET %s: store-backed %d, static %d", step, path, ds, ss)
			}
			if ds != http.StatusOK {
				t.Fatalf("%s: GET %s: %d %s", step, path, ds, dbody)
			}
			if !bytes.Equal(dbody, sbody) {
				t.Fatalf("%s: GET %s diverged:\nstore-backed %s\nstatic       %s", step, path, dbody, sbody)
			}
		}
	}
}

func deltaEquivalence(t *testing.T, kind, qs string) {
	const name = "prop"
	srv, hs, st := storeServer(t, Config{})
	mustMutate(t, hs, http.MethodPut, "/v1/datasets/"+name, api.CreateDataset{Kind: kind})

	rng := rand.New(rand.NewSource(7))
	// Seed enough points that deletes cannot empty the dataset.
	ids := mustMutate(t, hs, http.MethodPost, "/v1/datasets/"+name+"/points", randomInsert(rng, kind, 4)).IDs
	assertMatchesStatic(t, hs, st, name, qs, "seed")

	for step := 0; step < 24; step++ {
		if rng.Float64() < 0.35 && len(ids) > 2 {
			i := rng.Intn(len(ids))
			mustMutate(t, hs, http.MethodDelete, fmt.Sprintf("/v1/datasets/%s/points/%d", name, ids[i]), nil)
			ids = append(ids[:i], ids[i+1:]...)
		} else {
			ack := mustMutate(t, hs, http.MethodPost, "/v1/datasets/"+name+"/points", randomInsert(rng, kind, 1+rng.Intn(3)))
			ids = append(ids, ack.IDs...)
		}
		assertMatchesStatic(t, hs, st, name, qs, fmt.Sprintf("step %d", step))
	}

	// Not vacuous: the server folded deltas into a surviving engine
	// rather than rebuilding after every write.
	if ins := engineCost(t, srv, name).Inserts; ins == 0 {
		t.Fatal("server never applied a delta — the equivalence compared two rebuild paths")
	}
}

// engineCost sums the write-path work across a dataset's live engines.
func engineCost(t *testing.T, srv *Server, name string) engine.Cost {
	t.Helper()
	d := srv.reg.Get(name)
	if d == nil {
		t.Fatalf("dataset %q missing from registry", name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var total engine.Cost
	for _, e := range d.entries {
		if e.built.Load() {
			c := e.eng.Cost()
			total.Inserts += c.Inserts
			total.Deletes += c.Deletes
			total.RebuiltMembers += c.RebuiltMembers
		}
	}
	return total
}

// assertFallbacks requires pnn_delta_fallback_total to read exactly
// want, reasons absent from want counting as 0.
func assertFallbacks(t *testing.T, hs *httptest.Server, want map[string]uint64) {
	t.Helper()
	got := fetchObsSnapshot(t, hs).Counters["pnn_delta_fallback_total"]
	for reason, n := range got {
		if n != want[reason] {
			t.Errorf("pnn_delta_fallback_total{reason=%q} = %v, want %v", reason, n, want[reason])
		}
	}
	for reason, n := range want {
		if got[reason] != n {
			t.Errorf("pnn_delta_fallback_total{reason=%q} = %v, want %v", reason, got[reason], n)
		}
	}
}

// TestDropCountsNoFallback: a dataset lifecycle driven entirely over
// HTTP never takes a fallback. In particular a drop removes the entry
// rather than counting a tail gap, and a recreate under the other kind
// loads a name the registry no longer holds.
func TestDropCountsNoFallback(t *testing.T) {
	_, hs, _ := storeServer(t, Config{})
	mustMutate(t, hs, http.MethodPut, "/v1/datasets/a", api.CreateDataset{Kind: "discrete"})
	ack := mustMutate(t, hs, http.MethodPost, "/v1/datasets/a/points", api.InsertPoints{
		Discrete: []api.DiscretePointJSON{{X: []float64{1}, Y: []float64{2}}, {X: []float64{3}, Y: []float64{4}}},
	})
	mustMutate(t, hs, http.MethodDelete, fmt.Sprintf("/v1/datasets/a/points/%d", ack.IDs[0]), nil)
	mustMutate(t, hs, http.MethodDelete, "/v1/datasets/a", nil)
	mustMutate(t, hs, http.MethodPut, "/v1/datasets/a", api.CreateDataset{Kind: "disks"})
	assertFallbacks(t, hs, nil)
}

// randomStorePoints draws n random store points of the given kind, for
// commits made behind the server's back.
func randomStorePoints(rng *rand.Rand, kind string, n int) []store.Point {
	out := make([]store.Point, n)
	for i := range out {
		if kind == "disks" {
			out[i].Disk = &datafile.DiskJSON{X: rng.Float64() * 10, Y: rng.Float64() * 10, R: 0.1 + rng.Float64()}
			continue
		}
		out[i].Discrete = &datafile.DiscreteJSON{X: []float64{rng.Float64() * 10}, Y: []float64{rng.Float64() * 10}}
	}
	return out
}

// TestResetOnTailGap: when more ops land in the store than its op tail
// retains between two refreshes, the next refresh resets the entry
// (one tail_gap) and the rebuilt engines answer exactly like a fresh
// static index.
func TestResetOnTailGap(t *testing.T) {
	ctx := context.Background()
	_, hs, st := storeServer(t, Config{})
	rng := rand.New(rand.NewSource(3))
	mustMutate(t, hs, http.MethodPut, "/v1/datasets/g", api.CreateDataset{Kind: "discrete"})
	mustMutate(t, hs, http.MethodPost, "/v1/datasets/g/points", randomInsert(rng, "discrete", 3))
	assertMatchesStatic(t, hs, st, "g", "", "before") // live engines to retire

	for i := 0; i < 1100; i++ { // > the store's 1024-op tail
		if _, err := st.InsertPoints(ctx, "g", randomStorePoints(rng, "discrete", 1)); err != nil {
			t.Fatal(err)
		}
	}
	mustMutate(t, hs, http.MethodPost, "/v1/datasets/g/points", randomInsert(rng, "discrete", 1))
	assertFallbacks(t, hs, map[string]uint64{"tail_gap": 1})
	assertMatchesStatic(t, hs, st, "g", "", "after")
}

// TestResetOnKindChange: a drop + recreate under another kind between
// two refreshes replaces the entry with the store's (kind, N, version)
// and counts one kind_change.
func TestResetOnKindChange(t *testing.T) {
	ctx := context.Background()
	srv, hs, st := storeServer(t, Config{})
	rng := rand.New(rand.NewSource(5))
	mustMutate(t, hs, http.MethodPut, "/v1/datasets/k", api.CreateDataset{Kind: "discrete"})
	mustMutate(t, hs, http.MethodPost, "/v1/datasets/k/points", randomInsert(rng, "discrete", 4))
	assertMatchesStatic(t, hs, st, "k", "", "before")

	if _, err := st.DropDataset(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateDataset(ctx, "k", "disks"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertPoints(ctx, "k", randomStorePoints(rng, "disks", 2)); err != nil {
		t.Fatal(err)
	}
	mustMutate(t, hs, http.MethodPost, "/v1/datasets/k/points", randomInsert(rng, "disks", 1))

	info, err := st.Dataset("k")
	if err != nil {
		t.Fatal(err)
	}
	d := srv.reg.Get("k")
	if d == nil {
		t.Fatal("dataset missing from the registry")
	}
	if n, v := d.Stats(); d.Kind != info.Kind || n != info.N || v != info.Version {
		t.Fatalf("registry entry (%s, n=%d, v%d), store (%s, n=%d, v%d)", d.Kind, n, v, info.Kind, info.N, info.Version)
	}
	assertFallbacks(t, hs, map[string]uint64{"kind_change": 1})
	assertMatchesStatic(t, hs, st, "k", "", "after")
}

// TestDeleteHeavyDeltaApplies: a delta deleting half the dataset at
// once is folded in place like any other (the dynamic index compacts
// its own tombstones), with no fallback and unchanged answers.
func TestDeleteHeavyDeltaApplies(t *testing.T) {
	ctx := context.Background()
	srv, hs, st := storeServer(t, Config{})
	rng := rand.New(rand.NewSource(9))
	mustMutate(t, hs, http.MethodPut, "/v1/datasets/h", api.CreateDataset{Kind: "disks"})
	ids := mustMutate(t, hs, http.MethodPost, "/v1/datasets/h/points", randomInsert(rng, "disks", 20)).IDs
	assertMatchesStatic(t, hs, st, "h", "", "before")
	applied := fetchObsSnapshot(t, hs).Counters["pnn_delta_applied_total"][""]

	for _, id := range ids[:10] {
		if _, err := st.DeletePoint(ctx, "h", id); err != nil {
			t.Fatal(err)
		}
	}
	mustMutate(t, hs, http.MethodDelete, fmt.Sprintf("/v1/datasets/h/points/%d", ids[10]), nil)

	assertFallbacks(t, hs, nil)
	if got := fetchObsSnapshot(t, hs).Counters["pnn_delta_applied_total"][""]; got != applied+1 {
		t.Errorf("pnn_delta_applied_total = %v, want %v", got, applied+1)
	}
	if del := engineCost(t, srv, "h").Deletes; del < 11 {
		t.Errorf("live engines folded %d deletes, want at least 11", del)
	}
	assertMatchesStatic(t, hs, st, "h", "", "after")
}
