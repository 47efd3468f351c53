package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"xbench/internal/bench"
	"xbench/internal/gen"
	"xbench/internal/pager"
)

// endToEnd names the metrics every workload reports with tracing off, in
// the order BENCHMARK.json lists them. Each is defined on every workload
// (README.md gives the per-workload definition).
var endToEnd = []string{
	"setup_s", "query_ms_geomean", "effective_ms_geomean",
	"read_p50_ms", "read_p90_ms", "qps", "peak_rss_mb",
}

// perLayer names the metrics every workload reports with tracing on.
var perLayer = []string{
	"gen.s", "load.s", "index.s",
	"pager.disk_reads_per_query", "pager.hit_rate", "pager.readahead_useful",
	"pager.snap_captures_per_update", "mvcc.live_versions_max",
	"btree.visits_per_query", "btree.visits_per_update", "btree.splits_per_update",
	"relational.rows_scanned_per_result", "relational.probes_per_query",
	"plan.explain_us_p50",
	"phase.parse_pct", "phase.plan_pct", "phase.index_probe_pct",
	"phase.scan_pct", "phase.materialize_pct", "phase.eval_pct",
	"engine.execute_ms_p50", "engine.work_ms_per_query",
	"wire.read_overhead_ms_mean", "server.rejected_ratio",
	"journal.bytes_per_update", "router.scatter_share",
	"go.alloc_bytes_per_op", "go.gc_cycles_per_kop",
	"trace.overhead_pct",
}

// metric is one reported number with the count of samples behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64 // NaN when there were no samples
	N     int
}

// MarshalJSON writes a metric without samples with a null value.
func (m metric) MarshalJSON() ([]byte, error) {
	var v any = m.Value
	if math.IsNaN(m.Value) {
		v = nil
	}
	return json.Marshal(struct {
		Name  string `json:"name"`
		Unit  string `json:"unit"`
		Value any    `json:"value"`
		N     int    `json:"n"`
	}{m.Name, m.Unit, v, m.N})
}

// result is everything one run reports.
type result struct {
	Workload  string   `json:"workload"`
	GenSeed   uint64   `json:"gen_seed"`
	OpSeed    uint64   `json:"op_seed"`
	Trace     bool     `json:"trace"`
	Env       env      `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     int      `json:"wrong_answers"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
}

// maxProblems caps the failure messages kept; the counts stay exact.
const maxProblems = 20

func (r *result) add(name, unit string, v float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

// fail records one failed attempt: an error, a rejected or declined
// request, or (wrong == true) an answer that did not check out.
func (r *result) fail(wrong bool, format string, args ...any) {
	r.Failed++
	if wrong {
		r.Wrong++
	}
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// write prints every metric with its unit and sample count, writes the
// whole result as JSON under dir, and ends with the one-line summary whose
// metrics are the declared set for the mode.
func (r *result) write(w io.Writer, dir string) error {
	r.add("error_rate", "ratio", ratio(float64(r.Failed), float64(r.Attempted)), r.Attempted)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "workload %s gen_seed=%d op_seed=%d trace=%v\n", r.Workload, r.GenSeed, r.OpSeed, r.Trace)
	fmt.Fprintf(bw, "env %s\n", r.Env)
	for _, n := range r.Notes {
		fmt.Fprintf(bw, "note %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(bw, "problem %s\n", p)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(bw, "metric %-38s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		name := fmt.Sprintf("%s-gen%d-op%d-trace%d.json", r.Workload, r.GenSeed, r.OpSeed, b2i(r.Trace))
		path := filepath.Join(dir, name)
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(bw, "wrote %s\n", path)
	}
	want := endToEnd
	if r.Trace {
		want = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, name := range want {
		m, ok := r.get(name)
		if !ok || math.IsNaN(m.Value) {
			return fmt.Errorf("perfbench: workload %s has no value for metric %s", r.Workload, name)
		}
		ms[name] = val{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Wrong == 0, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// env records what both sides of a comparison ran under, including the
// flush policy of the journal the mixed workload writes.
type env struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	JournalFS   string `json:"journal_fs"`
	GroupCommit string `json:"group_commit"`
	PoolPages   int    `json:"pool_pages"`
	IOCostUs    int64  `json:"io_cost_us"`
}

func (e env) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s journal_fs=%s group_commit=%q pool_pages=%d io_cost_us=%d",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.JournalFS, e.GroupCommit, e.PoolPages, e.IOCostUs)
}

// ioCost is the simulated cost of one page I/O, taken from the paper
// harness so the effective-time model cannot drift from the tables.
var ioCost = bench.NewRunner(gen.Config{}, nil, io.Discard).IOCost

func currentEnv(journalDir string) env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		JournalFS:  fsType(journalDir),
		// updatelog.OpenFile turns group commit on with no batching
		// window, and the server never changes it.
		GroupCommit: "on, window 0 (fsync per batch)",
		PoolPages:   pager.DefaultPoolPages,
		IOCostUs:    ioCost.Microseconds(),
	}
}

// fsType returns the type of the filesystem holding dir, from the longest
// matching mount point in /proc/mounts ("unknown" when unreadable).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}

// restartPeakRSS runs when a workload's measured phase begins. It hands
// freed heap back to the OS and restarts the resident-set high-water mark
// (VmHWM) from there, so peak_rss_mb is the peak while the loaded system
// serves, not the transient garbage of the repeated set-ups before it.
func restartPeakRSS(r *result) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		r.note("peak_rss_mb includes the set-ups: %v", err)
	}
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return math.NaN()
}

// quantile is the exact nearest-rank order statistic: the smallest sample
// with at least q of the samples at or below it. Samples beyond it number
// len(xs) - ceil(q*len(xs)).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// beyond is the number of samples strictly above the q order statistic.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// gcStats brackets a measured window to report allocation and GC work
// per op.
type gcStats struct{ alloc, gcs uint64 }

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{alloc: m.TotalAlloc, gcs: uint64(m.NumGC)}
}

func (r *result) addGC(before, after gcStats, ops int) {
	r.add("go.alloc_bytes_per_op", "B", ratio(float64(after.alloc-before.alloc), float64(ops)), ops)
	r.add("go.gc_cycles_per_kop", "count", ratio(float64(after.gcs-before.gcs)*1000, float64(ops)), ops)
}
