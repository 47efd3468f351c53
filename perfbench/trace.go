package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"xbench/internal/core"
	"xbench/internal/metrics"
	"xbench/internal/pager"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the index of the span that caused it (-1 for a root).
// Calls that cross the wire start a new root on the server side, because
// the protocol carries no trace id yet.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is off:
// every method is a no-op and costs one nil check. While on, recording
// can be paused (setOn(false)) so a traced run interleaves untraced
// stretches, and their end-to-end difference is the tracing overhead.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

type spanKey struct{}

type spanRef struct {
	req int64
	id  int
}

// begin opens a span named name under the span ctx carries (a new
// request when it carries none) and returns a context carrying the new
// span plus its index. It returns ctx and -1 when not recording.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, int) {
	if !t.active() {
		return ctx, -1
	}
	parent, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		parent = spanRef{req: t.reqs.Add(1), id: -1}
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: parent.req, Parent: parent.id, Start: int64(time.Since(t.t0))})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, spanRef{req: parent.req, id: id}), id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// toggle flips recording every period until stop is closed, so the
// concurrent workloads alternate traced and untraced stretches. It
// returns once the flipping goroutine has exited and recording is on.
func (t *tracer) toggle(period time.Duration, stop <-chan struct{}) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				t.setOn(true)
				return
			case <-tick.C:
				t.setOn(!t.on.Load())
			}
		}
	}()
	return func() { <-done }
}

// save writes the recorded spans as JSON.
func (t *tracer) save(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// samples is a goroutine-safe list of durations in milliseconds.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.xs = append(s.xs, ms(d))
	s.mu.Unlock()
}

func (s *samples) take() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.xs
	s.xs = nil
	return out
}

// timed wraps a core.Engine and times the calls made to it while the
// tracer records. It forwards Explain, Metrics and Pager, so a server or
// harness that looks for those sees exactly what the bare engine offers.
type timed struct {
	core.Engine
	tr    *tracer
	label string

	exec, upd, load, index samples
}

func wrap(e core.Engine, tr *tracer, label string) *timed {
	return &timed{Engine: e, tr: tr, label: label}
}

func (t *timed) Execute(ctx context.Context, q core.QueryID, p core.Params) (core.Result, error) {
	if !t.tr.active() {
		return t.Engine.Execute(ctx, q, p)
	}
	_, id := t.tr.begin(ctx, t.label+".execute")
	start := time.Now()
	res, err := t.Engine.Execute(ctx, q, p)
	t.exec.add(time.Since(start))
	t.tr.end(id)
	return res, err
}

func (t *timed) update(ctx context.Context, name string, apply func() error) error {
	if !t.tr.active() {
		return apply()
	}
	_, id := t.tr.begin(ctx, t.label+"."+name)
	start := time.Now()
	err := apply()
	t.upd.add(time.Since(start))
	t.tr.end(id)
	return err
}

func (t *timed) InsertDocument(ctx context.Context, name string, data []byte) error {
	return t.update(ctx, "insert", func() error { return t.Engine.InsertDocument(ctx, name, data) })
}

func (t *timed) ReplaceDocument(ctx context.Context, name string, data []byte) error {
	return t.update(ctx, "replace", func() error { return t.Engine.ReplaceDocument(ctx, name, data) })
}

func (t *timed) DeleteDocument(ctx context.Context, name string) error {
	return t.update(ctx, "delete", func() error { return t.Engine.DeleteDocument(ctx, name) })
}

// Load and BuildIndexes are set-up: they are timed whether or not the
// tracer is recording.
func (t *timed) Load(ctx context.Context, db *core.Database) (core.LoadStats, error) {
	start := time.Now()
	st, err := t.Engine.Load(ctx, db)
	t.load.add(time.Since(start))
	return st, err
}

func (t *timed) BuildIndexes(specs []core.IndexSpec) error {
	start := time.Now()
	err := t.Engine.BuildIndexes(specs)
	t.index.add(time.Since(start))
	return err
}

func (t *timed) Explain(ctx context.Context, q core.QueryID, p core.Params) (*core.PlanNode, error) {
	return core.Explain(ctx, t.Engine, q, p)
}

func (t *timed) Metrics() *metrics.Registry { return registryOf(t.Engine) }

func (t *timed) Pager() *pager.Pager { return pagerOf(t.Engine) }

var _ core.Explainer = (*timed)(nil)

// registryOf returns an engine's metrics registry (nil when it has none).
func registryOf(e core.Engine) *metrics.Registry {
	if mp, ok := e.(interface{ Metrics() *metrics.Registry }); ok {
		return mp.Metrics()
	}
	return nil
}

// pagerOf returns an engine's pager (nil when it has none).
func pagerOf(e core.Engine) *pager.Pager {
	if pp, ok := e.(interface{ Pager() *pager.Pager }); ok {
		return pp.Pager()
	}
	return nil
}
