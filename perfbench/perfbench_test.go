package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xbench/internal/bench"
	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/metrics"
	"xbench/internal/pager"
	"xbench/internal/workload"
)

// tinyOpts runs a workload at Small size for a few seconds: mixed-wire
// splits them over four engines, and a traced run needs a traced and an
// untraced 250 ms stretch on each.
func tinyOpts(t *testing.T, trace bool) opts {
	o := defaultOpts()
	o.seconds = 4 * time.Second
	o.setups = 1
	o.trace = trace
	o.coldSize, o.mixedSize, o.routedSize = core.Small, core.Small, core.Small
	o.genSeed, o.opSeed = 1, 1
	o.workDir = t.TempDir()
	return o
}

// lastLine decodes the one-line summary a result ends with.
func lastLine(t *testing.T, r *result) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := r.write(&buf, ""); err != nil {
		t.Fatalf("write: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	return out
}

func TestEveryMetricEmitted(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			o := tinyOpts(t, trace)
			r, err := runWorkload(name, run, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if r.Failed != 0 {
				t.Errorf("%s trace=%v: %d failed (problems %v)", name, trace, r.Failed, r.Problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			got := lastLine(t, r)["metrics"].(map[string]any)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(got), len(want))
			}
			for _, m := range want {
				if _, ok := got[m]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				}
			}
		}
	}
}

func TestOpStreamIsBalanced(t *testing.T) {
	mix := []core.QueryID{core.Q1, core.Q2, core.Q5, core.Q8}
	for client := 0; client < clients; client++ {
		ops := opStream(7, client, mix, mixedUpdateEvery, 1000)
		if again := opStream(7, client, mix, mixedUpdateEvery, 1000); !slices.Equal(ops, again) {
			t.Fatalf("client %d: the same seed gave another stream", client)
		}
		updates := map[workload.UpdateOp]int{}
		var reads []core.QueryID
		for _, op := range ops {
			if op.Update != 0 {
				updates[op.Update]++
			} else {
				reads = append(reads, op.Query)
			}
		}
		if len(reads) != 800 || updates[workload.U1] < 66 || updates[workload.U2] < 66 || updates[workload.U3] < 66 {
			t.Fatalf("client %d: %d reads and updates %v, want 800 and about 67 each", client, len(reads), updates)
		}
		for i := 0; i+len(mix) <= len(reads); i += len(mix) {
			round := slices.Clone(reads[i : i+len(mix)])
			slices.Sort(round)
			if !slices.Equal(round, mix) {
				t.Fatalf("client %d: round %d is %v, want each of %v once", client, i/len(mix), round, mix)
			}
		}
	}
	if slices.Equal(opStream(7, 0, mix, 0, 100), opStream(8, 0, mix, 0, 100)) {
		t.Error("two seeds gave the same read order")
	}
}

// wrongOnce returns one answer with an item missing, then answers right.
type wrongOnce struct {
	core.Engine
	done bool
}

func (w *wrongOnce) Execute(ctx context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	res, err := w.Engine.Execute(ctx, q, p)
	if err == nil && !w.done && len(res.Items) > 0 {
		w.done = true
		res.Items = res.Items[1:]
	}
	return res, err
}

func TestWrongAnswerRaisesErrorRate(t *testing.T) {
	o := tinyOpts(t, false)
	stubbed := false
	o.newEngine = func(name string) core.Engine {
		if name == "Xcolumn" && !stubbed { // checked exactly against the native engine
			stubbed = true
			return &wrongOnce{Engine: bench.NewEngine(name)}
		}
		return bench.NewEngine(name)
	}
	r, err := runWorkload("paper-cold", paperCold, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Wrong != 1 {
		t.Fatalf("wrong answers = %d, want 1 (problems %v)", r.Wrong, r.Problems)
	}
	out := lastLine(t, r)
	if out["correct"] != false {
		t.Errorf("correct = %v after a wrong answer", out["correct"])
	}
	if m, _ := r.get("error_rate"); m.Value <= 0 {
		t.Errorf("error_rate = %v after a wrong answer", m.Value)
	}
}

func TestExplainThroughWrapperMatchesBareEngine(t *testing.T) {
	db, err := gen.Config{Seed: 1}.Generate(core.DCMD, core.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range bench.EngineNames {
		bare := bench.NewEngine(name)
		if _, _, err := workload.LoadAndIndex(context.Background(), bare, db); err != nil {
			t.Fatal(err)
		}
		w := wrap(bare, newTracer(), "engine")
		for _, q := range workload.QueryIDs(core.DCMD) {
			p := workload.Params(core.DCMD)
			want, werr := core.Explain(context.Background(), bare, q, p)
			got, gerr := core.Explain(context.Background(), w, q, p)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s %s: bare err %v, wrapped err %v", name, q, werr, gerr)
			}
			if werr == nil && want.Format() != got.Format() {
				t.Errorf("%s %s: plans differ\nbare:\n%swrapped:\n%s", name, q, want.Format(), got.Format())
			}
		}
		if registryOf(w) != registryOf(bare) || pagerOf(w) != pagerOf(bare) {
			t.Errorf("%s: wrapper does not forward Metrics/Pager", name)
		}
		bare.Close()
	}
}

// badReadBack fails the first update read-back with an error and answers
// the second with the wrong visibility; everything else passes through.
type badReadBack struct {
	core.Engine
	n atomic.Int32
}

func (b *badReadBack) Metrics() *metrics.Registry { return registryOf(b.Engine) }
func (b *badReadBack) Pager() *pager.Pager        { return pagerOf(b.Engine) }

func (b *badReadBack) Execute(ctx context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	res, err := b.Engine.Execute(ctx, q, p)
	if q != core.Q1 || !strings.HasPrefix(p["X"], "OU") || err != nil {
		return res, err
	}
	switch b.n.Add(1) {
	case 1:
		return core.Result{}, errors.New("stub: read-back failed")
	case 2:
		if len(res.Items) == 0 {
			res.Items = []string{"<stub/>"}
		} else {
			res.Items = nil
		}
	}
	return res, err
}

func TestReadBackErrorIsNotAWrongAnswer(t *testing.T) {
	o := tinyOpts(t, false)
	o.newEngine = func(name string) core.Engine {
		if name == "X-Hive" {
			return &badReadBack{Engine: bench.NewEngine(name)}
		}
		return bench.NewEngine(name)
	}
	r, err := runWorkload("mixed-wire", mixedWire, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 2 || r.Wrong != 1 {
		t.Fatalf("failed = %d, wrong = %d, want 2 and 1 (problems %v)", r.Failed, r.Wrong, r.Problems)
	}
}
