// Command perfbench is the repository benchmark. It runs one named
// workload against the system through its public packages, checks every
// answer, and reports end-to-end metrics (tracing off) or per-layer
// metrics (tracing on). README.md defines the workloads and metrics.
//
//	go run . --workload paper-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit status is non-zero on any wrong answer or when the run cannot
// complete.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xbench/internal/bench"
	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/workload"
)

// bg is the context of every call: runs end by time, not cancellation.
var bg = context.Background()

// opts is one run's configuration.
type opts struct {
	genSeed uint64
	opSeed  uint64
	seconds time.Duration
	trace   bool
	setups  int    // set-ups per run; setup_s is their median
	workDir string // working directory for journals

	// newEngine builds each engine under test by its paper row label; the
	// self-test substitutes stubs.
	newEngine func(name string) core.Engine

	// Sizes; the self-test shrinks them.
	coldSize, mixedSize, routedSize core.Size
}

func defaultOpts() opts {
	return opts{
		seconds:    20 * time.Second,
		coldSize:   core.Normal,
		mixedSize:  core.Small,
		routedSize: core.Normal,
		newEngine:  bench.NewEngine,
	}
}

// defaultSetups is how many times each workload sets up per run. The
// cheap set-ups repeat more, because a short time is a noisy one.
var defaultSetups = map[string]int{"paper-cold": 3, "mixed-wire": 9, "routed-read": 3}

// workloads maps each workload name to its runner.
var workloads = map[string]func(o opts, tr *tracer, r *result) error{
	"paper-cold":  paperCold,
	"mixed-wire":  mixedWire,
	"routed-read": routedRead,
}

func main() {
	o := defaultOpts()
	name := flag.String("workload", "", "paper-cold, mixed-wire or routed-read")
	seed := flag.Uint64("seed", 1, "seed for the generated data and the op streams")
	genSeed := flag.Int64("gen-seed", -1, "generation seed (default: --seed)")
	opSeed := flag.Int64("op-seed", -1, "op-stream seed (default: --seed)")
	secs := flag.Float64("seconds", 20, "measured seconds per run (mixed-wire: split over the engines)")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", ".bench_build/results", "directory for the JSON result and spans")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	o.setups = defaultSetups[*name]
	o.genSeed, o.opSeed = *seed, *seed
	if *genSeed >= 0 {
		o.genSeed = uint64(*genSeed)
	}
	if *opSeed >= 0 {
		o.opSeed = uint64(*opSeed)
	}
	o.seconds = time.Duration(*secs * float64(time.Second))
	o.trace = *trace == 1

	err := os.MkdirAll(*out, 0o755)
	var work string
	if err == nil {
		work, err = os.MkdirTemp(*out, "work-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	o.workDir = work
	r, err := runWorkload(*name, run, o)
	os.RemoveAll(work)
	if err == nil {
		err = r.write(os.Stdout, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if r.Wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answer(s)\n", r.Wrong)
		os.Exit(1)
	}
}

// runWorkload runs one workload and returns its result. In traced mode it
// also writes the spans next to the result.
func runWorkload(name string, run func(opts, *tracer, *result) error, o opts) (*result, error) {
	r := &result{Workload: name, GenSeed: o.genSeed, OpSeed: o.opSeed, Trace: o.trace, Env: currentEnv(o.workDir)}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	if err := run(o, tr, r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.add("peak_rss_mb", "MB", peakRSSMB(), 1)
	if tr != nil {
		path := filepath.Join(filepath.Dir(o.workDir),
			fmt.Sprintf("%s-gen%d-op%d-spans.json", name, o.genSeed, o.opSeed))
		if err := tr.save(path); err != nil {
			return nil, err
		}
		r.note("spans: %s (%d)", path, len(tr.spans))
	}
	return r, nil
}

// layers accumulates registry deltas (counters and phase times) across
// the engines of a workload.
type layers struct {
	c  map[string]int64
	ph map[string]time.Duration
}

func newLayers() layers {
	return layers{c: map[string]int64{}, ph: map[string]time.Duration{}}
}

func (l layers) add(b metrics.Breakdown) {
	for k, v := range b.Counters {
		if !metrics.IsGauge(k) {
			l.c[k] += v
		}
	}
	for k, v := range b.Phases {
		l.ph[k] += v
	}
}

// snapshots takes a snapshot of every registry; deltas returns what
// happened since.
func snapshots(regs []*metrics.Registry) []metrics.Snapshot {
	out := make([]metrics.Snapshot, len(regs))
	for i, reg := range regs {
		out[i] = reg.Snapshot()
	}
	return out
}

func (l layers) since(regs []*metrics.Registry, before []metrics.Snapshot) {
	for i, reg := range regs {
		l.add(reg.Snapshot().Delta(before[i]))
	}
}

var phaseMetrics = []struct{ metric, phase string }{
	{"phase.parse_pct", metrics.PhaseParse},
	{"phase.plan_pct", metrics.PhasePlan},
	{"phase.index_probe_pct", metrics.PhaseIndexProbe},
	{"phase.scan_pct", metrics.PhaseScan},
	{"phase.materialize_pct", metrics.PhaseMaterialize},
	{"phase.eval_pct", metrics.PhaseEval},
}

// addReadLayers reports the per-query counter metrics. ops is the number
// of operations the counters cover and items the result items they
// returned. Phase spans nest, so each phase is reported as its share of
// all phase time, not of the wall clock.
func (r *result) addReadLayers(l layers, ops, items int) {
	c := func(k string) float64 { return float64(l.c[k]) }
	n := float64(ops)
	r.add("pager.disk_reads_per_query", "count", ratio(c("pager.read"), n), ops)
	r.add("pager.hit_rate", "ratio", ratio(c("pager.hit"), c("pager.hit")+c("pager.read")), ops)
	r.add("pager.readahead_useful", "ratio", ratio(c("pager.readahead.hit"), c("pager.readahead.issued")), ops)
	r.add("btree.visits_per_query", "count", ratio(c("btree.visit"), n), ops)
	r.add("relational.rows_scanned_per_result", "count", ratio(c("relational.scan.row"), float64(items)), items)
	r.add("relational.probes_per_query", "count", ratio(c("relational.probe"), n), ops)
	var total time.Duration
	for _, d := range l.ph {
		total += d
	}
	for _, pm := range phaseMetrics {
		r.add(pm.metric, "%", 100*ratio(float64(l.ph[pm.phase]), float64(total)), ops)
	}
}

// addUpdateLayers reports the per-update counter metrics from a serial
// update probe (zero when the workload issues no updates).
func (r *result) addUpdateLayers(l layers, updates int) {
	c := func(k string) float64 { return float64(l.c[k]) }
	n := float64(updates)
	r.add("pager.snap_captures_per_update", "count", ratio(c("pager.snap.capture"), n), updates)
	r.add("btree.visits_per_update", "count", ratio(c("btree.visit"), n), updates)
	r.add("btree.splits_per_update", "count", ratio(c("btree.split"), n), updates)
}

// setupTimes is one set-up, in seconds: the whole of it and the parts
// spent generating, loading and building indexes.
type setupTimes struct{ total, gen, load, index float64 }

// addSetup reports setup_s, the median over the run's set-ups, and the
// median generation, load and index times.
func (r *result) addSetup(ts []setupTimes) {
	var total, gen, load, index []float64
	var each []string
	for _, t := range ts {
		total, gen, load, index = append(total, t.total), append(gen, t.gen), append(load, t.load), append(index, t.index)
		each = append(each, fmt.Sprintf("%.3fs", t.total))
	}
	r.note("set-ups %v", each)
	r.add("setup_s", "s", median(total), len(ts))
	r.add("gen.s", "s", median(gen), len(ts))
	r.add("load.s", "s", median(load), len(ts))
	r.add("index.s", "s", median(index), len(ts))
}

// addLatency reports a latency distribution as exact order statistics
// and notes how many samples lie beyond the high percentile.
func (r *result) addLatency(prefix string, xs []float64) {
	r.add(prefix+"_p50_ms", "ms", median(xs), len(xs))
	r.add(prefix+"_p90_ms", "ms", quantile(xs, 0.9), len(xs))
	if b := beyond(len(xs), 0.9); b < 10 {
		r.note("%s_p90_ms has only %d samples beyond it", prefix, b)
	}
}

// explainTimes times core.Explain reps times for each query and returns
// the times in microseconds.
func explainTimes(e core.Engine, class core.Class, qs []core.QueryID, reps int) ([]float64, error) {
	var us []float64
	params := workload.Params(class)
	for _, q := range qs {
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := core.Explain(bg, e, q, params); err != nil {
				return nil, fmt.Errorf("explain %s %s %s: %w", e.Name(), class, q, err)
			}
			us = append(us, float64(time.Since(start))/float64(time.Microsecond))
		}
	}
	return us, nil
}
