package main

import (
	"fmt"
	"runtime"
	"time"

	"xbench/internal/core"
	"xbench/internal/gen"
	"xbench/internal/workload"
)

// minColdPasses is the least number of passes over the grid, so every
// cell has a median of at least four cold runs.
const minColdPasses = 4

type unitKey struct {
	engine string
	class  core.Class
}

// coldSetup generates every class and loads and indexes every engine the
// grid uses, returning the engines by (engine, class).
func coldSetup(o opts, tr *tracer, cells []cell) (map[unitKey]core.Engine, setupTimes, error) {
	var times setupTimes
	start := time.Now()
	dbs := map[core.Class]*core.Database{}
	for _, c := range cells {
		if dbs[c.class] != nil {
			continue
		}
		db, err := gen.Config{Seed: o.genSeed}.Generate(c.class, o.coldSize)
		if err != nil {
			return nil, times, err
		}
		dbs[c.class] = db
	}
	times.gen = time.Since(start).Seconds()
	engines := map[unitKey]core.Engine{}
	for _, c := range cells {
		k := unitKey{c.engine, c.class}
		if _, ok := engines[k]; ok {
			continue
		}
		var e core.Engine = o.newEngine(c.engine)
		if tr != nil {
			e = wrap(e, tr, "engine")
		}
		engines[k] = e
		if err := e.Supports(c.class, o.coldSize); err != nil {
			engines[k] = nil // every cell of the unit will fail
			e.Close()
			continue
		}
		t := time.Now()
		if _, err := e.Load(bg, dbs[c.class]); err != nil {
			closeAll(engines)
			return nil, times, fmt.Errorf("load %s %s: %w", c.engine, c.class, err)
		}
		times.load += time.Since(t).Seconds()
		t = time.Now()
		if err := e.BuildIndexes(workload.Indexes(c.class)); err != nil {
			closeAll(engines)
			return nil, times, fmt.Errorf("index %s %s: %w", c.engine, c.class, err)
		}
		times.index += time.Since(t).Seconds()
	}
	times.total = time.Since(start).Seconds()
	return engines, times, nil
}

func closeAll(engines map[unitKey]core.Engine) {
	for _, e := range engines {
		if e != nil {
			e.Close()
		}
	}
}

// paperCold runs the paper's protocol: every pinned cell, single stream,
// with the engine's caches dropped before each measured Execute. Passes
// over the grid repeat until the measured time is used up; each cell
// reports the median of its runs. Answers are checked against the native
// engine's with workload.ModeFor/Check.
func paperCold(o opts, tr *tracer, r *result) error {
	cells := pinnedCells()
	var setups []setupTimes
	var engines map[unitKey]core.Engine
	for k := 0; k < o.setups; k++ {
		if engines != nil {
			closeAll(engines)
		}
		runtime.GC()
		var t setupTimes
		var err error
		if engines, t, err = coldSetup(o, tr, cells); err != nil {
			return err
		}
		setups = append(setups, t)
	}
	defer closeAll(engines)

	type cellRuns struct {
		wall, eff []float64 // untraced runs
		twall     []float64 // traced runs
		failed    bool      // an error or decline: no time enters the geomeans
	}
	runs := make([]cellRuns, len(cells))
	refs := map[unitKey]map[core.QueryID]core.Result{} // native answers by class
	lay := newLayers()
	var all []float64
	var items, ops, passes int
	var wrapperOverhead, exec []float64
	restartPeakRSS(r)
	gc0 := readGC()
	start := time.Now()
	var passTimes []string
	for passes < minColdPasses || time.Since(start) < o.seconds {
		runtime.GC() // no pass pays for the garbage of the one before
		passStart := time.Now()
		for i, c := range cells {
			rc := &runs[i]
			e := engines[unitKey{c.engine, c.class}]
			r.Attempted++
			if e == nil {
				r.fail(false, "%s %s %s: engine does not support the class at this size", c.engine, c.class, c.query)
				rc.failed = true
				continue
			}
			traced := tr != nil && (i+passes)%2 == 1
			tr.setOn(traced)
			ctx, id := tr.begin(bg, "cold."+c.query.String())
			m := workload.RunCold(ctx, e, c.class, c.query)
			tr.end(id)
			if m.Err != nil {
				r.fail(false, "%s %s %s: %v", c.engine, c.class, c.query, m.Err)
				rc.failed = true
				continue
			}
			if err := checkCold(refs, c, m.Result); err != nil {
				r.fail(true, "%s %s %s: %v", c.engine, c.class, c.query, err)
			}
			wall := ms(m.Elapsed)
			if traced {
				rc.twall = append(rc.twall, wall)
				lay.add(m.Breakdown)
				items += len(m.Result.Items)
				ops++
				if w, ok := e.(*timed); ok {
					ex := w.exec.take()
					exec = append(exec, ex...)
					if len(ex) == 1 {
						wrapperOverhead = append(wrapperOverhead, wall-ex[0])
					}
				}
				continue
			}
			rc.wall = append(rc.wall, wall)
			rc.eff = append(rc.eff, wall+ms(time.Duration(m.Result.PageIO)*ioCost))
			all = append(all, wall)
		}
		passes++
		passTimes = append(passTimes, fmt.Sprintf("%.2fs", time.Since(passStart).Seconds()))
	}
	window := time.Since(start)
	gc1 := readGC()
	tr.setOn(true)

	var meds, effs, tmeds, umeds []float64
	for i := range runs {
		rc := &runs[i]
		if rc.failed || len(rc.wall) == 0 {
			continue
		}
		meds = append(meds, median(rc.wall))
		effs = append(effs, median(rc.eff))
		if len(rc.twall) > 0 {
			tmeds = append(tmeds, median(rc.twall))
			umeds = append(umeds, median(rc.wall))
		}
	}
	r.note("paper-cold: %d pinned cells, %d passes %v, %d answered cells in the geomeans", len(cells), passes, passTimes, len(meds))
	r.addSetup(setups)
	r.add("query_ms_geomean", "ms", geomean(meds), len(meds))
	r.add("effective_ms_geomean", "ms", geomean(effs), len(effs))
	r.addLatency("read", all)
	r.add("qps", "1/s", float64(r.Attempted)/window.Seconds(), r.Attempted)
	if tr == nil {
		return nil
	}

	r.addReadLayers(lay, ops, items)
	r.addUpdateLayers(newLayers(), 0)
	r.add("mvcc.live_versions_max", "count", float64(liveVersions(engines)), len(engines))
	us, err := coldExplain(engines, cells)
	if err != nil {
		return err
	}
	r.add("plan.explain_us_p50", "us", median(us), len(us))
	r.add("engine.execute_ms_p50", "ms", median(exec), len(exec))
	r.add("engine.work_ms_per_query", "ms", ratio(sum(exec), float64(ops)), ops)
	r.add("wire.read_overhead_ms_mean", "ms", mean(wrapperOverhead), len(wrapperOverhead))
	r.add("server.rejected_ratio", "ratio", 0, 0)
	r.add("journal.bytes_per_update", "B", 0, 0)
	r.add("router.scatter_share", "ratio", 0, 0)
	r.addGC(gc0, gc1, passes*len(cells))
	r.add("trace.overhead_pct", "%", 100*(geomean(tmeds)/geomean(umeds)-1), len(tmeds))
	return nil
}

// checkCold checks one cold answer. The native engine's first answer to
// each (class, query) is the reference; later native runs must repeat it
// exactly, and other engines are checked under workload.ModeFor.
func checkCold(refs map[unitKey]map[core.QueryID]core.Result, c cell, got core.Result) error {
	k := unitKey{nativeEngine, c.class}
	if refs[k] == nil {
		refs[k] = map[core.QueryID]core.Result{}
	}
	ref, ok := refs[k][c.query]
	if c.engine == nativeEngine {
		if !ok {
			refs[k][c.query] = got
			return nil
		}
		return workload.Check(workload.Exact, ref, got)
	}
	if !ok {
		return fmt.Errorf("no native answer to check against")
	}
	return workload.Check(workload.ModeFor(c.class, c.query, c.engine), ref, got)
}

// coldExplain times core.Explain through the timing wrapper on every
// shredded cell (the engines whose plans the planner chooses).
func coldExplain(engines map[unitKey]core.Engine, cells []cell) ([]float64, error) {
	var us []float64
	for _, c := range cells {
		if c.engine != "Xcollection" && c.engine != "SQL Server" {
			continue
		}
		if e := engines[unitKey{c.engine, c.class}]; e != nil {
			xs, err := explainTimes(e, c.class, []core.QueryID{c.query}, 5)
			if err != nil {
				return nil, err
			}
			us = append(us, xs...)
		}
	}
	return us, nil
}

// liveVersions is the largest count of live MVCC page versions across
// the engines' pagers right now.
func liveVersions(engines map[unitKey]core.Engine) int {
	best := 0
	for _, e := range engines {
		if e == nil {
			continue
		}
		if p := pagerOf(e); p != nil {
			best = max(best, p.LiveVersions())
		}
	}
	return best
}
