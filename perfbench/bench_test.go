package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pnn/api"
	"pnn/internal/loadgen"
	"pnn/server"
)

// TestSameSeedSameStream pins that a workload's request stream depends
// only on the seed: byte-identical for equal seeds, different otherwise.
func TestSameSeedSameStream(t *testing.T) {
	dump := func(name string, seed int64) []byte {
		t.Helper()
		gen, err := loadgen.NewGen(workloads(seed)[name].Spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gen.Dump(&buf, 300); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, name := range workloadNames() {
		a, b := dump(name, 7), dump(name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", name)
		}
		if bytes.Equal(a, dump(name, 8)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
}

// serveAnswer asks an in-process server for one answer, decoded.
func serveAnswer(t *testing.T, h http.Handler, req loadgen.Request, method string) answer {
	t.Helper()
	lr := &layerRun{b: &bench{w: workload{Spec: loadgen.Spec{Method: method, Eps: 0.05}}}}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, lr.queryURL(req), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: %d %s", req.Op, rec.Code, rec.Body.String())
	}
	resp, err := decodeItem(req.Op, api.BatchResult{Body: rec.Body.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	return answer{req, resp}
}

// TestCorruptedAnswerCounted checks real server answers against the
// reference, then corrupts each kind of answer once and expects every
// corruption to be counted as a wrong answer.
func TestCorruptedAnswerCounted(t *testing.T) {
	for _, method := range []string{"", "spiral"} {
		d := dataset{"set", "discrete", 300, 4, 3}
		f, err := d.file()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newReference(f)
		if err != nil {
			t.Fatal(err)
		}
		set, err := f.Set()
		if err != nil {
			t.Fatal(err)
		}
		reg := server.NewRegistry()
		if err := reg.Add(d.Name, set); err != nil {
			t.Fatal(err)
		}
		srv := server.New(reg, server.Config{CacheSize: -1, BatchWindow: -1})
		defer srv.Close()
		eps := 0.0
		if method == "spiral" {
			eps = 0.05
		}
		b := &bench{w: workload{Datasets: []dataset{d}}, refs: map[string]*reference{d.Name: ref}, eps: eps}

		var ph phase
		for _, op := range api.Ops {
			ph.answers = append(ph.answers, serveAnswer(t, srv.Handler(), loadgen.Request{Op: op, Dataset: d.Name, X: 50, Y: 50, K: 3, Tau: 0.2}, method))
		}
		if err := b.verify(context.Background(), nil, nil, ph); err != nil {
			t.Fatal(err)
		}
		if b.wrong != 0 {
			t.Fatalf("method %q: %d served answers counted wrong: %s", method, b.wrong, b.firstWrong)
		}

		for _, a := range ph.answers {
			switch r := a.resp.(type) {
			case *api.Nonzero:
				r.Indices = r.Indices[1:]
			case *api.Probabilities:
				for i, p := range r.Probabilities {
					if p > 0 {
						r.Probabilities[i] = p + 0.2
						break
					}
				}
			case *api.TopK:
				r.Results[0].P += 0.2
			case *api.Threshold:
				r.Certain, r.Possible = nil, nil
			case *api.ExpectedNN:
				r.Distance += 1
			}
		}
		if err := b.verify(context.Background(), nil, nil, ph); err != nil {
			t.Fatal(err)
		}
		if b.wrong != len(api.Ops) {
			t.Errorf("method %q: %d of %d corrupted answers counted wrong", method, b.wrong, len(api.Ops))
		}
	}
}

// contract is the part of BENCHMARK.json the result must match.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestShortRunPrintsEveryMetric builds the servers, runs every workload
// for one second, and the traced run of one, and checks that each
// result names every metric of BENCHMARK.json with its unit.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts servers")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "pnn/cmd/pnnserve", "pnn/cmd/pnnrouter")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building servers: %v\n%s", err, out)
	}
	runs := [][]string{{"--workload", "routed-batch", "--trace", "1"}}
	for _, name := range workloadNames() {
		runs = append(runs, []string{"--workload", name, "--trace", "0"})
	}
	for _, args := range runs {
		var stdout, stderr bytes.Buffer
		args = append(args, "--seconds", "1", "--seed", "5", "--bin", bin, "--out", t.TempDir())
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%v: last line: %v", args, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, lines[0])
		}
		want := c.EndToEnd
		if args[3] == "1" {
			want = c.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%v: %d metrics, BENCHMARK.json lists %d", args, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%v: metric %s = %+v, want unit %s", args, m.Name, got, m.Unit)
			}
		}
	}
}
