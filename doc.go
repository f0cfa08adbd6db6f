// Package pnn implements probabilistic nearest-neighbor search over
// uncertain points in the plane, reproducing "Nearest-Neighbor Searching
// Under Uncertainty II" (Agarwal, Aronov, Har-Peled, Phillips, Yi, Zhang;
// PODS 2013).
//
// # Quickstart
//
// Build an uncertain-point set, wrap it in the Index facade, and query:
//
//	set, err := pnn.NewDiscreteSet(points) // or NewContinuousSet, NewSquareSet
//	idx, err := pnn.New(set)
//	candidates, err := idx.Nonzero(q)       // NN≠0(q): who can be nearest?
//	pi, err := idx.Probabilities(q)         // π_i(q): how likely is each?
//	top, err := idx.TopK(q, 3)              // most probable nearest neighbors
//	results, err := idx.QueryBatch(ctx, qs, workers) // concurrent batches
//
// An uncertain point is either continuous — a probability density with a
// disk support (uniform or truncated Gaussian) — or discrete: k candidate
// locations with probabilities. Square regions under the L∞ metric
// (§3, Remark (ii)) support the NN≠0 family.
//
// # Option matrix
//
// New accepts functional options; every combination not listed as an
// error below is supported.
//
//	WithMetric          L2 (disks, discrete) | Linf (squares); inferred
//	                    from the data when omitted.
//	WithNonzeroBackend  BackendIndex   near-linear index, Thms 3.1/3.2 (default)
//	                    BackendDirect  O(n) evaluation of Lemma 2.1
//	                    BackendDiagram V≠0 point location, Thm 2.11
//	                                   (L2 only)
//	WithQuantifier      Exact()                 Eq. (2) sweep / Eq. (1)
//	                                            integration (default)
//	                    MonteCarlo(eps, delta)  Thms 4.3/4.5
//	                    MonteCarloBudget(s)     explicit round budget
//	                    SpiralSearch(eps)       Thm 4.7, one-sided ε
//	                    VPrDiagram(box)         Thm 4.2 (discrete only)
//	                    (any quantifier over a SquareSet is an error:
//	                    L∞ supports the NN≠0 family only)
//	WithSeed            seeds all randomized preprocessing (default 1)
//	WithRandSource      custom rand.Source, overrides WithSeed
//	WithIntegrationPanels / WithSpiralSamples   accuracy knobs for
//	                    continuous inputs
//
// # The sparse hot path
//
// TopK, Threshold, and PositiveProbabilities never materialize the
// N-length probability vector when the engine has a sparse answer: a
// Monte Carlo estimator reports at most s positive estimates (Theorem
// 4.3) and spiral search inspects only the m(ρ,ε) nearest locations
// (Theorem 4.7), so those engines answer ranked and filtered queries in
// output-sized allocations — typically one allocation per call, for the
// caller-owned result. Exact engines compute the dense vector into
// pooled scratch and filter it. The sparse and dense paths are
// equivalence-tested to be identical, bitwise, across engines and set
// kinds. The one dense fallback is Threshold with tau ≤ Eps() on an
// approximate engine, where zero-estimate points are genuinely Possible
// and the full vector is required (it comes from the same pooled
// scratch).
//
// # Caller-buffer variants and ownership
//
// Every query result is caller-owned: mutating a returned slice never
// affects later queries. For allocation-flat loops the *Into variants —
// ProbabilitiesInto and NonzeroInto — reuse a caller buffer instead:
// the buffer is consumed from its start (not appended after existing
// elements), grown only when too small, and the returned slice aliases
// it, so it is valid only until the next *Into call with that buffer.
// Passing nil is allowed and behaves like the allocating form.
//
// # Query-parameter domains
//
// TopK(q, k) defines its edges identically through the facade,
// QueryBatchOps, and the HTTP serving surface: k < 0 fails with
// ErrInvalidParam, k == 0 answers an empty ranking, k > Len() clamps.
// Threshold rejects NaN and ±Inf taus with ErrInvalidParam, and never
// certifies a zero-probability point — Threshold(q, 0) reports exactly
// the positive-probability points as Certain under an exact engine.
// New and NewDynamic reject quantifier parameters outside their domain
// (eps and delta in (0, 1), rounds ≥ 1) with ErrInvalidParam.
//
// # Determinism
//
// All randomness is drawn during New (Monte Carlo instantiations,
// continuous-point discretization), so a built Index is read-only:
// every query method is safe for concurrent use, and QueryBatch returns
// identical results for every worker count. Two Indexes built from the
// same data, options, and seed answer identically.
//
// # Dynamic indexes
//
// DynamicIndex carries the same query surface over a mutable point
// set: NewDynamic, then InsertDisk/InsertDiscrete/InsertSquare and
// Delete by the stable PointID each insert returns. The static
// structures are dynamized with the Bentley–Saxe logarithmic method
// (points live in O(log n) static buckets that merge on overflow;
// deletes are tombstones with compaction once they reach the live
// count), and every query is bitwise identical to a fresh static Index
// built from the surviving points with the same options. Nonzero
// answers through the merged per-bucket structures. Exact, discrete
// SpiralSearch and ExpectedNN answer from the buckets and the live
// points, with no rebuild after a write. MonteCarlo, MonteCarloBudget,
// continuous SpiralSearch and VPrDiagram draw randomness or build a
// diagram over the whole set, so they answer through a static view
// rebuilt lazily on the first such query after a write. Result indices
// refer to the survivors in insertion order; IDs maps them back to
// PointIDs.
//
// # Removed per-set API
//
// The per-set query methods and their wrapper types (NonzeroAt,
// BuildDiagram, NewMonteCarlo, NewSpiral, NewVPr and the rest) were
// removed in favour of New, which answers every query they did.
//
// The quickstart in examples/quickstart shows both query families end to
// end; ARCHITECTURE.md maps every theorem of the paper to its
// implementation, and cmd/pnnbench regenerates the measured
// reproductions (pnnbench -experiment list).
package pnn
