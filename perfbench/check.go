package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"pnn"
	"pnn/api"
	"pnn/internal/datafile"
	"pnn/internal/loadgen"
)

// reference answers queries on one dataset with the most accurate
// engine the facade offers: the Direct NN≠0 backend and the Exact
// quantifier, with 4096 integration panels for continuous sets.
type reference struct {
	ix *pnn.Index
	// tol is the reference's own numerical tolerance on a probability.
	tol float64
}

// Tolerances on the difference between a served Exact probability and
// the reference. Discrete sets are computed by one exact sweep on both
// sides; continuous ones by quadrature at different panel counts.
const (
	tolContinuous = 1e-4
	tolDiscrete   = 1e-9
)

func newReference(f *datafile.File) (*reference, error) {
	set, err := f.Set()
	if err != nil {
		return nil, err
	}
	opts := []pnn.Option{pnn.WithNonzeroBackend(pnn.BackendDirect), pnn.WithQuantifier(pnn.Exact())}
	tol := tolDiscrete
	if f.Kind == datafile.KindDisks {
		opts = append(opts, pnn.WithIntegrationPanels(4096))
		tol = tolContinuous
	}
	ix, err := pnn.New(set, opts...)
	if err != nil {
		return nil, err
	}
	return &reference{ix: ix, tol: tol}, nil
}

// query is one single-point question, from a request or a batch item.
type query struct {
	Op   string
	X, Y float64
	K    int
	Tau  float64
}

// check compares one served answer with the reference. eps is the
// additive accuracy of the served engine (0 for Exact): a served
// estimate π̂ is right when π̂ ≤ π ≤ π̂+ε, up to the reference's own
// tolerance. A nil error means the answer is right.
func (r *reference) check(q query, resp any, eps float64) error {
	pt := pnn.Pt(q.X, q.Y)
	tol := r.tol
	n := r.ix.Len()
	var pi []float64
	probs := func() ([]float64, error) {
		if pi == nil {
			var err error
			if pi, err = r.ix.Probabilities(pt); err != nil {
				return nil, err
			}
		}
		return pi, nil
	}
	within := func(v, p float64) bool { return v <= p+tol && p <= v+eps+tol }

	switch a := resp.(type) {
	case *api.Nonzero:
		want, err := r.ix.Nonzero(pt)
		if err != nil {
			return err
		}
		got := slices.Clone(a.Indices)
		slices.Sort(got)
		slices.Sort(want)
		if a.N != n || !slices.Equal(got, want) {
			return fmt.Errorf("nonzero at (%g,%g): got %v of %d, want %v of %d", q.X, q.Y, got, a.N, want, n)
		}
	case *api.Probabilities:
		pi, err := probs()
		if err != nil {
			return err
		}
		if len(a.Probabilities) != n {
			return fmt.Errorf("probabilities at (%g,%g): %d values for %d points", q.X, q.Y, len(a.Probabilities), n)
		}
		for i, v := range a.Probabilities {
			if !within(v, pi[i]) {
				return fmt.Errorf("probabilities at (%g,%g): point %d served %g, reference %g", q.X, q.Y, i, v, pi[i])
			}
		}
	case *api.TopK:
		pi, err := probs()
		if err != nil {
			return err
		}
		if len(a.Results) > q.K {
			return fmt.Errorf("topk at (%g,%g): %d results for k=%d", q.X, q.Y, len(a.Results), q.K)
		}
		in := make(map[int]bool)
		floor := 0.0
		for j, e := range a.Results {
			if e.Index < 0 || e.Index >= n || in[e.Index] || !within(e.P, pi[e.Index]) {
				return fmt.Errorf("topk at (%g,%g): entry %d = %+v, reference %v", q.X, q.Y, j, e, valueAt(pi, e.Index))
			}
			if j > 0 && e.P > a.Results[j-1].P {
				return fmt.Errorf("topk at (%g,%g): results not in decreasing order", q.X, q.Y)
			}
			in[e.Index] = true
			floor = e.P
		}
		if len(a.Results) < q.K {
			floor = 0
		}
		// Nothing left out may be clearly more probable than the last
		// entry kept.
		for i, p := range pi {
			if !in[i] && p > floor+eps+tol {
				return fmt.Errorf("topk at (%g,%g): point %d (π=%g) missing above %g", q.X, q.Y, i, p, floor)
			}
		}
	case *api.Threshold:
		pi, err := probs()
		if err != nil {
			return err
		}
		marked := make(map[int]bool)
		for _, i := range a.Certain {
			if i < 0 || i >= n || pi[i] < q.Tau-tol {
				return fmt.Errorf("threshold at (%g,%g) tau=%g: point %d certified with π=%v", q.X, q.Y, q.Tau, i, valueAt(pi, i))
			}
			marked[i] = true
		}
		for _, i := range a.Possible {
			if i < 0 || i >= n || pi[i] < q.Tau-eps-tol {
				return fmt.Errorf("threshold at (%g,%g) tau=%g: point %d possible with π=%v", q.X, q.Y, q.Tau, i, valueAt(pi, i))
			}
			marked[i] = true
		}
		for i, p := range pi {
			if p >= q.Tau+tol && !marked[i] {
				return fmt.Errorf("threshold at (%g,%g) tau=%g: point %d (π=%g) neither certain nor possible", q.X, q.Y, q.Tau, i, p)
			}
		}
	case *api.ExpectedNN:
		_, d, err := r.ix.ExpectedNN(pt)
		if err != nil {
			return err
		}
		// A different index is right only as a tie on the distance.
		if a.Index < 0 || a.Index >= n || math.Abs(a.Distance-d) > tol*math.Max(1, d) {
			return fmt.Errorf("expectednn at (%g,%g): got %d at %g, reference distance %g", q.X, q.Y, a.Index, a.Distance, d)
		}
	default:
		return fmt.Errorf("no check for %T", resp)
	}
	return nil
}

func valueAt(pi []float64, i int) any {
	if i < 0 || i >= len(pi) {
		return "out of range"
	}
	return pi[i]
}

// decodeItem decodes one batch result into the response type of op.
func decodeItem(op string, r api.BatchResult) (any, error) {
	var out any
	switch op {
	case "nonzero":
		out = new(api.Nonzero)
	case "probabilities":
		out = new(api.Probabilities)
	case "topk":
		out = new(api.TopK)
	case "threshold":
		out = new(api.Threshold)
	case "expectednn":
		out = new(api.ExpectedNN)
	default:
		return nil, fmt.Errorf("batch item op %q", op)
	}
	if r.Error != nil {
		return nil, fmt.Errorf("batch item failed: %s", r.Error.Code)
	}
	if err := json.Unmarshal(r.Body, out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkAnswer checks one kept answer against the references, keyed by
// dataset name, and returns the number of wrong answers in it (a batch
// envelope holds several) and the first failure.
func checkAnswer(refs map[string]*reference, eps float64, a answer) (wrong int, first error) {
	note := func(err error) {
		if err != nil {
			wrong++
			if first == nil {
				first = err
			}
		}
	}
	if a.req.Op == loadgen.OpBatch {
		results, ok := a.resp.([]api.BatchResult)
		if !ok || len(results) != len(a.req.Items) {
			note(fmt.Errorf("batch envelope: %d results for %d items", len(results), len(a.req.Items)))
			return wrong, first
		}
		for i, it := range a.req.Items {
			resp, err := decodeItem(it.Op, results[i])
			if err != nil {
				note(err)
				continue
			}
			k := it.K
			if it.Op == "topk" && k == 0 {
				k = 3 // the server default for an omitted k
			}
			note(refs[it.Dataset].check(query{it.Op, it.X, it.Y, k, it.Tau}, resp, eps))
		}
		return wrong, first
	}
	r := a.req
	note(refs[r.Dataset].check(query{r.Op, r.X, r.Y, r.K, r.Tau}, a.resp, eps))
	return wrong, first
}
