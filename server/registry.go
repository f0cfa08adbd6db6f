package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pnn"
	"pnn/internal/obs"
	"pnn/server/engine"
	"pnn/store"
)

// IndexKey identifies one engine configuration of a dataset: the NN≠0
// backend plus the quantifier and its parameters. Two requests with the
// same key share one lazily built engine.
type IndexKey struct {
	// Backend is "index", "direct", or "diagram".
	Backend string
	// Method is "exact", "spiral", "mc", or "mcbudget".
	Method string
	// Eps and Delta parameterize spiral and Monte Carlo quantifiers.
	Eps, Delta float64
	// Rounds is the explicit budget for "mcbudget".
	Rounds int
	// Seed seeds randomized quantifiers.
	Seed int64
}

// String renders the key canonically (it is part of cache keys).
func (k IndexKey) String() string {
	return fmt.Sprintf("%s/%s/eps=%g/delta=%g/rounds=%d/seed=%d",
		k.Backend, k.Method, k.Eps, k.Delta, k.Rounds, k.Seed)
}

// Options translates the key into pnn.New options.
func (k IndexKey) Options() ([]pnn.Option, error) {
	opts := []pnn.Option{pnn.WithSeed(k.Seed)}
	switch k.Backend {
	case "", "index":
		opts = append(opts, pnn.WithNonzeroBackend(pnn.BackendIndex))
	case "direct":
		opts = append(opts, pnn.WithNonzeroBackend(pnn.BackendDirect))
	case "diagram":
		opts = append(opts, pnn.WithNonzeroBackend(pnn.BackendDiagram))
	default:
		return nil, fmt.Errorf("unknown backend %q", k.Backend)
	}
	switch k.Method {
	case "", "exact":
		// Exact is the construction default; passing it explicitly would
		// wrongly reject L∞ squares, which answer NN≠0 but admit no
		// quantifier (and reject any explicitly requested one).
	case "spiral":
		opts = append(opts, pnn.WithQuantifier(pnn.SpiralSearch(k.Eps)))
	case "mc":
		opts = append(opts, pnn.WithQuantifier(pnn.MonteCarlo(k.Eps, k.Delta)))
	case "mcbudget":
		opts = append(opts, pnn.WithQuantifier(pnn.MonteCarloBudget(k.Rounds)))
	default:
		return nil, fmt.Errorf("unknown method %q", k.Method)
	}
	return opts, nil
}

// Dataset is one named uncertain-point set plus its lazily built
// engines, one per IndexKey. Durable (store-backed) datasets hold no
// point set: their engines build from the store, absorb committed
// mutations in place, and the version bumps with every write.
type Dataset struct {
	// Name is the registry key clients address the dataset by.
	Name string
	// Kind is "disks", "discrete", or "squares".
	Kind string

	// durable marks a store-backed dataset: only these accept
	// mutations (static datasets are fixed at startup).
	durable bool
	// set is a static dataset's immutable point set; nil for durable
	// datasets, whose engines read the store.
	set pnn.UncertainSet

	mu sync.Mutex
	// n is the current live point count.
	n int
	// version is the dataset's monotone mutation version. It keys the
	// result cache, so entries cached against an older version can
	// never be served after a write.
	version uint64
	entries map[IndexKey]*indexEntry
}

// indexEntry builds one engine exactly once; concurrent first users
// block on the build and share the result.
type indexEntry struct {
	once sync.Once
	eng  engine.Engine
	err  error
	// built flips true once the build has completed successfully; it is
	// the synchronization point letting applyDelta read applied and eng
	// without joining the once.
	built atomic.Bool
	// applied is the dataset version the engine's state reflects — set
	// by the build (to the store version it actually read, which may be
	// ahead of the entry's label version) and advanced by applyDelta.
	// Mutated only pre-publication or under Dataset.mu after built.
	applied uint64
}

// Set returns a static dataset's point set; nil for a durable one.
func (d *Dataset) Set() pnn.UncertainSet { return d.set }

// Version returns the dataset's monotone mutation version.
func (d *Dataset) Version() uint64 {
	_, v := d.Stats()
	return v
}

// Len returns the current point count (0 when empty).
func (d *Dataset) Len() int {
	n, _ := d.Stats()
	return n
}

// Stats returns the dataset's current point count and version under
// one lock acquisition — the consistent pair the serving path keys
// caches and emptiness checks by.
func (d *Dataset) Stats() (int, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n, d.version
}

// Durable reports whether the dataset is store-backed (mutable).
func (d *Dataset) Durable() bool { return d.durable }

// Indexes returns the number of engines built (or building) for the
// current version.
func (d *Dataset) Indexes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// reset moves the dataset to a newer store state (n points at
// version) and retires every engine: queries already holding one
// finish on it, and later queries build fresh engines lazily from the
// store. Stale resets (version not newer) are ignored, so concurrent
// resets can land in any order.
func (d *Dataset) reset(n int, version uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if version <= d.version {
		return
	}
	d.n = n
	d.version = version
	d.entries = make(map[IndexKey]*indexEntry)
}

// applyDelta folds committed mutations into the dataset's live engines
// and bumps the version in place — no generation swap, so caches key
// naturally off the new version. Engines that cannot absorb the delta
// are retired individually and rebuilt lazily on their next query:
// static engines (Apply demands a rebuild), builds still in flight
// (they read the store directly and may predate these ops without
// being patchable), and engines whose Apply failed. Per-engine
// `applied` filtering keeps an engine whose build already read a newer
// store state from replaying ops twice. Stale deltas (version not
// newer) are ignored.
func (d *Dataset) applyDelta(version uint64, n int, ops []store.DeltaOp) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if version <= d.version {
		return
	}
	for key, e := range d.entries {
		if !e.built.Load() {
			delete(d.entries, key)
			continue
		}
		if err := e.eng.Apply(opsAfter(ops, e.applied)); err != nil {
			delete(d.entries, key)
			continue
		}
		if version > e.applied {
			e.applied = version
		}
	}
	d.n = n
	d.version = version
}

// opsAfter returns the suffix of ops with Seq > applied (ops are in
// increasing Seq order).
func opsAfter(ops []store.DeltaOp, applied uint64) []store.DeltaOp {
	i := 0
	for i < len(ops) && ops[i].Seq <= applied {
		i++
	}
	return ops[i:]
}

// ErrTooManyEngines rejects a request that would build yet another
// engine configuration once the per-dataset cap is reached. Engine
// keys include client-controlled parameters (seed, eps, …), so without
// a cap a query loop over fresh seeds would grow server memory without
// bound.
var ErrTooManyEngines = errors.New("server: too many engine configurations for dataset")

// errStaleVersion reports that the dataset was mutated between the
// caller's snapshot and its engine lookup; the caller re-reads and
// retries.
var errStaleVersion = errors.New("server: dataset version changed")

// entry returns the dataset's engine for key at the given version,
// creating the slot on first use (up to maxEngines slots; maxEngines
// ≤ 0 means unlimited). It fails with errStaleVersion when the dataset
// has moved past version — the caller's snapshot no longer matches the
// entries generation. build is invoked at most once per key,
// outside the dataset lock (index construction can be slow); a panic
// inside build is captured into the entry's error rather than
// poisoning the slot.
func (d *Dataset) entry(key IndexKey, version uint64, maxEngines int, build func(*indexEntry)) (*indexEntry, error) {
	d.mu.Lock()
	if d.version != version {
		d.mu.Unlock()
		return nil, errStaleVersion
	}
	e, ok := d.entries[key]
	if !ok {
		if maxEngines > 0 && len(d.entries) >= maxEngines {
			d.mu.Unlock()
			return nil, fmt.Errorf("%w (cap %d)", ErrTooManyEngines, maxEngines)
		}
		e = &indexEntry{}
		d.entries[key] = e
	}
	d.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.eng = nil
				e.err = fmt.Errorf("server: building %s engine: panic: %v", key, r)
			}
		}()
		build(e)
	})
	if e.err == nil && e.eng != nil {
		// Publish the build to applyDelta, which must not join the once
		// under the dataset lock. Re-storing on later lookups is
		// harmless.
		e.built.Store(true)
	}
	if e.err != nil {
		// A failed build must not occupy a cap slot forever (cheap
		// failing configurations could otherwise lock the dataset out
		// of valid new engines). Concurrent waiters of this entry still
		// see the error; the next request gets a fresh slot.
		d.mu.Lock()
		if d.entries[key] == e {
			delete(d.entries, key)
		}
		d.mu.Unlock()
	}
	return e, nil
}

// Registry is the server's set of named datasets. It is safe for
// concurrent use: datasets can be added, mutated, and removed while
// queries are in flight.
type Registry struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{datasets: make(map[string]*Dataset)}
}

// Add registers a static (read-only) dataset under name at version 1.
// It rejects duplicate names and infers Kind from the set's concrete
// type.
func (r *Registry) Add(name string, set pnn.UncertainSet) error {
	if name == "" {
		return fmt.Errorf("empty dataset name")
	}
	if set == nil || set.Len() == 0 {
		return fmt.Errorf("dataset %q is empty", name)
	}
	return r.add(&Dataset{
		Name: name, Kind: kindOf(set),
		set: set, n: set.Len(), version: 1,
		entries: make(map[IndexKey]*indexEntry),
	})
}

func newDurableDataset(info store.DatasetInfo) *Dataset {
	return &Dataset{
		Name: info.Name, Kind: info.Kind, durable: true,
		n: info.N, version: info.Version,
		entries: make(map[IndexKey]*indexEntry),
	}
}

func (r *Registry) add(d *Dataset) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.datasets[d.Name]; dup {
		return fmt.Errorf("duplicate dataset %q", d.Name)
	}
	r.datasets[d.Name] = d
	return nil
}

// Upsert resets the durable dataset named info.Name to the store
// state info describes, registering it when absent. The old engines
// are retired and rebuild lazily from the store. A stale reset (version
// not newer) is ignored. A newer version under a different kind means
// the name was dropped and recreated as a different dataset: the entry
// is replaced wholesale, since Kind never changes in place (an
// older-kind reset must not relabel the current data); so is a static
// entry of the same name. The whole decision runs under r.mu —
// releasing it between the lookup and the version-checked reset would
// let a concurrent kind change replace the map entry while a same-kind
// caller resets the detached object, silently losing the newer
// version. (Lock order r.mu → d.mu; nothing acquires them the other
// way around.)
func (r *Registry) Upsert(info store.DatasetInfo) {
	r.mu.Lock()
	d := r.datasets[info.Name]
	if d != nil && d.durable {
		if d.Kind == info.Kind {
			// reset takes d.mu only briefly (a map swap), so holding
			// r.mu across it is cheap.
			d.reset(info.N, info.Version)
			r.mu.Unlock()
			return
		}
		if info.Version <= d.Version() {
			r.mu.Unlock()
			return // stale reset from before the drop+recreate
		}
	}
	r.datasets[info.Name] = newDurableDataset(info)
	r.mu.Unlock()
}

// refreshPath names how Registry.refresh brought a dataset current;
// the fallback paths double as pnn_delta_fallback_total reasons.
type refreshPath string

const (
	// pathDelta folded the ops into the live engines in place.
	pathDelta refreshPath = "delta"
	// pathLoad registered a name the registry did not hold.
	pathLoad refreshPath = "load"
	// pathTailGap reset the entry: the store's op history no longer
	// reaches back to the registry's version.
	pathTailGap refreshPath = "tail_gap"
	// pathKindChange reset the entry: the name was dropped and
	// recreated under another kind.
	pathKindChange refreshPath = "kind_change"
)

// refresh brings a durable dataset current with the store state info,
// given ops and complete exactly as Store.OpsSince returned them for
// the registry's version (0 for a name the registry does not hold). It
// folds ops into the live engines in place when the entry can absorb
// them, and resets the entry via Upsert otherwise. The delta leg
// applies to the entry looked up here, so callers serialize refreshes
// per name (the server's refresh lock); otherwise a concurrent reset
// could detach the entry mid-apply.
func (r *Registry) refresh(ctx context.Context, info store.DatasetInfo, ops []store.DeltaOp, complete bool) refreshPath {
	d := r.Get(info.Name)
	path := pathDelta
	switch {
	case d == nil || !d.durable:
		path = pathLoad
	case d.Kind != info.Kind:
		path = pathKindChange
	case !complete:
		path = pathTailGap
	}
	if path != pathDelta {
		r.Upsert(info)
		return path
	}
	span := obs.LeafSpan(ctx, "delta.apply")
	span.SetAttr("dataset", info.Name)
	d.applyDelta(info.Version, info.N, ops)
	span.End()
	return pathDelta
}

// Remove unregisters a dataset; queries already holding one of its
// engines finish on it. It reports whether the name was present.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.datasets[name]
	delete(r.datasets, name)
	return ok
}

// Get returns the named dataset, or nil.
func (r *Registry) Get(name string) *Dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.datasets[name]
}

// Len returns the number of datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.datasets)
}

// Names returns a copy of the dataset names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.datasets))
	for name := range r.datasets {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

func kindOf(set pnn.UncertainSet) string {
	switch set.(type) {
	case *pnn.ContinuousSet:
		return "disks"
	case *pnn.DiscreteSet:
		return "discrete"
	case *pnn.SquareSet:
		return "squares"
	default:
		return "unknown"
	}
}
