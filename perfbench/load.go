package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pnn/api"
	"pnn/client"
	"pnn/internal/datafile"
	"pnn/internal/loadgen"
	"pnn/internal/obs"
)

// sample is one completed request of the measured phase.
type sample struct {
	op string
	// lat counts from the request's due time in an open loop and from
	// its send time in a closed loop.
	lat time.Duration
	// late is how long after its due time an open-loop request was sent.
	late time.Duration
	err  error
}

// answer is one request kept for the correctness check.
type answer struct {
	req  loadgen.Request
	resp any
}

// liveSet is the benchmark's own log of acknowledged writes: the points
// a durable dataset holds, keyed by the ids the server assigned.
type liveSet struct {
	mu     sync.Mutex
	points map[uint64]datafile.DiscreteJSON
	ids    []uint64 // live ids not claimed by an in-flight delete
	pick   *rand.Rand
}

func newLiveSet(seed int64) *liveSet {
	return &liveSet{points: make(map[uint64]datafile.DiscreteJSON), pick: rand.New(rand.NewSource(seed))}
}

func (l *liveSet) add(ids []uint64, pts []api.DiscretePointJSON) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, id := range ids {
		l.points[id] = datafile.DiscreteJSON{X: pts[i].X, Y: pts[i].Y, W: pts[i].W}
		l.ids = append(l.ids, id)
	}
}

// claim takes a live id out of the pool for a delete.
func (l *liveSet) claim() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ids) == 0 {
		return 0, false
	}
	i := l.pick.Intn(len(l.ids))
	id := l.ids[i]
	l.ids[i] = l.ids[len(l.ids)-1]
	l.ids = l.ids[:len(l.ids)-1]
	return id, true
}

func (l *liveSet) deleted(id uint64) {
	l.mu.Lock()
	delete(l.points, id)
	l.mu.Unlock()
}

// snapshot returns the live points in id order, which is the rank
// order the server answers in.
func (l *liveSet) snapshot() []datafile.DiscreteJSON {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]uint64, 0, len(l.points))
	for id := range l.points {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]datafile.DiscreteJSON, len(ids))
	for i, id := range ids {
		out[i] = l.points[id]
	}
	return out
}

// issuer sends generated requests through the public client.
type issuer struct {
	cli    *client.Client
	params *client.Params
	live   *liveSet // nil for read-only workloads
}

func newIssuer(url string, w workload, live *liveSet, conns int) *issuer {
	is := &issuer{
		cli:  client.New(url, client.WithAdminToken(adminToken), client.WithMaxConns(conns), client.WithTimeout(60*time.Second)),
		live: live,
	}
	if w.Spec.Method != "" {
		is.params = &client.Params{Method: w.Spec.Method, Eps: w.Spec.Eps}
	}
	return is
}

// do issues one request and returns its decoded answer.
func (is *issuer) do(ctx context.Context, req loadgen.Request) (any, error) {
	switch req.Op {
	case "nonzero":
		return is.cli.Nonzero(ctx, req.Dataset, req.X, req.Y, is.params)
	case "probabilities":
		return is.cli.Probabilities(ctx, req.Dataset, req.X, req.Y, is.params)
	case "topk":
		return is.cli.TopK(ctx, req.Dataset, req.X, req.Y, req.K, is.params)
	case "threshold":
		return is.cli.Threshold(ctx, req.Dataset, req.X, req.Y, req.Tau, is.params)
	case "expectednn":
		return is.cli.ExpectedNN(ctx, req.Dataset, req.X, req.Y, is.params)
	case loadgen.OpBatch:
		res, err := is.cli.Batch(ctx, req.Items)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			if r.Error != nil {
				return res, fmt.Errorf("batch item: %s: %s", r.Error.Code, r.Error.Error)
			}
		}
		return res, nil
	case loadgen.OpInsert:
		m, err := is.cli.InsertPoints(ctx, req.Dataset, api.InsertPoints{Disks: req.Disks, Discrete: req.Discrete})
		if err != nil {
			return nil, err
		}
		if is.live != nil {
			is.live.add(m.IDs, req.Discrete)
		}
		return m, nil
	case loadgen.OpDelete:
		if is.live == nil {
			return nil, fmt.Errorf("delete on a read-only workload")
		}
		id, ok := is.live.claim()
		if !ok {
			return nil, fmt.Errorf("delete with no live point")
		}
		m, err := is.cli.DeletePoint(ctx, req.Dataset, id)
		if err == nil {
			is.live.deleted(id)
		}
		return m, err
	}
	return nil, fmt.Errorf("unknown op %q", req.Op)
}

// stream hands out the generator's requests in order to concurrent
// clients.
type stream struct {
	mu  sync.Mutex
	gen *loadgen.Gen
	n   int
}

func (s *stream) next() (loadgen.Request, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.gen.Next(), s.n - 1
}

// phase is one measured stretch of load.
type phase struct {
	samples []sample
	answers []answer
	wall    time.Duration
}

// keeper decides which answers are kept for checking: every every-th
// request, up to max.
type keeper struct {
	every, max int
}

// runPhase drives load for d, or for count requests when count > 0: a
// closed loop of w.Clients clients, or an open loop of Poisson arrivals
// at w.Rate over w.Clients connections. With tracer set, each request
// runs under a root span whose traceparent the client forwards.
func runPhase(ctx context.Context, w workload, is *issuer, st *stream, d time.Duration, count int, keep keeper, arrivals *rand.Rand, tracer *obs.Tracer) phase {
	var mu sync.Mutex
	var ph phase
	record := func(seq int, req loadgen.Request, s sample, resp any) {
		mu.Lock()
		defer mu.Unlock()
		ph.samples = append(ph.samples, s)
		if s.err == nil && keep.every > 0 && seq%keep.every == 0 && len(ph.answers) < keep.max {
			ph.answers = append(ph.answers, answer{req, resp})
		}
	}
	exec := func(req loadgen.Request) (any, error) {
		rctx, span := obs.StartTrace(ctx, tracer, "request", "")
		span.SetAttr("op", req.Op)
		resp, err := is.do(rctx, req)
		span.End()
		return resp, err
	}

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var issued atomic.Int64
	more := func() bool {
		if count > 0 {
			return issued.Add(1) <= int64(count)
		}
		return time.Now().Before(deadline)
	}
	if w.Rate == 0 {
		for c := 0; c < w.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for more() && ctx.Err() == nil {
					req, seq := st.next()
					t0 := time.Now()
					resp, err := exec(req)
					record(seq, req, sample{op: req.Op, lat: time.Since(t0), err: err}, resp)
				}
			}()
		}
	} else {
		// The whole schedule is drawn before the clock starts, so the
		// generator costs nothing inside the measured interval.
		var due []time.Duration
		var reqs []loadgen.Request
		var seqs []int
		for t := time.Duration(arrivals.ExpFloat64() / w.Rate * float64(time.Second)); t < d; t += time.Duration(arrivals.ExpFloat64() / w.Rate * float64(time.Second)) {
			req, seq := st.next()
			due, reqs, seqs = append(due, t), append(reqs, req), append(seqs, seq)
		}
		start = time.Now()
		var next atomic.Int64
		for c := 0; c < w.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1) - 1)
					if i >= len(due) {
						return
					}
					at := start.Add(due[i])
					if wait := time.Until(at); wait > 0 {
						time.Sleep(wait)
					}
					sent := time.Now()
					resp, err := exec(reqs[i])
					record(seqs[i], reqs[i], sample{op: reqs[i].Op, lat: time.Since(at), late: sent.Sub(at), err: err}, resp)
				}
			}()
		}
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}
