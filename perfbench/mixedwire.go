package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xbench/internal/bench"
	"xbench/internal/client"
	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/gen"
	"xbench/internal/metrics"
	"xbench/internal/server"
	"xbench/internal/workload"
)

// mixedUpdateEvery makes every fifth op a U1-U3 update: 20% updates.
const mixedUpdateEvery = 5

// mixedShare splits the measured time, --seconds, over the engines. Each
// share is sized so that at the declared 20 s every engine completes more
// than 100 updates, enough for an update p90 with ten samples beyond it:
// the shredded engines, whose updates rewrite whole tables, complete the
// fewest ops and get the largest shares.
var mixedShare = map[string]float64{"Xcolumn": 0.1, "Xcollection": 0.375, "SQL Server": 0.375, "X-Hive": 0.15}

// served is one engine behind its own server and journal.
type served struct {
	name    string
	eng     core.Engine // as handed to the server (wrapped when traced)
	srv     *server.Server
	cli     *client.Client
	journal string
}

func engineCode(name string) string {
	return strings.ToLower(strings.NewReplacer(" ", "", "-", "").Replace(name))
}

// mixedSetup generates the DC/MD database and starts one server per
// engine with a fresh journal (server.Reopen loads and indexes), plus a
// client dialled to it.
func mixedSetup(o opts, tr *tracer, rep int) ([]*served, setupTimes, error) {
	var times setupTimes
	start := time.Now()
	db, err := gen.Config{Seed: o.genSeed}.Generate(core.DCMD, o.mixedSize)
	if err != nil {
		return nil, times, err
	}
	times.gen = time.Since(start).Seconds()
	var ss []*served
	for i, name := range bench.EngineNames {
		var e core.Engine = o.newEngine(name)
		if tr != nil {
			e = wrap(e, tr, "engine")
		}
		path := filepath.Join(o.workDir, fmt.Sprintf("journal-%d-%d.log", rep, i))
		srv, _, err := server.Reopen(e, db, workload.Indexes(core.DCMD), path, server.Config{})
		if err != nil {
			e.Close()
			closeServed(ss)
			return nil, times, fmt.Errorf("%s: %w", name, err)
		}
		s := &served{name: name, eng: e, srv: srv, journal: path}
		ss = append(ss, s)
		if err := srv.Start(); err != nil {
			closeServed(ss)
			return nil, times, err
		}
		if s.cli, err = client.Dial(srv.Addr().String(), client.Config{}); err != nil {
			closeServed(ss)
			return nil, times, err
		}
	}
	times.total = time.Since(start).Seconds()
	for _, s := range ss {
		if w, ok := s.eng.(*timed); ok {
			times.load += sum(w.load.take()) / 1000
			times.index += sum(w.index.take()) / 1000
		}
	}
	return ss, times, nil
}

// closeServed closes the clients, drains the servers (which closes their
// engines) and removes the journals.
func closeServed(ss []*served) {
	for _, s := range ss {
		if s.cli != nil {
			s.cli.Close()
		}
		ctx, cancel := context.WithTimeout(bg, 10*time.Second)
		s.srv.Shutdown(ctx)
		cancel()
		os.Remove(s.journal)
	}
}

// mixedWire serves each engine in turn over one wire hop and drives it
// with closed-loop clients issuing 20% updates. Every update is verified
// by RunUpdateOp's Q1 read-back. Metrics aggregate as geomeans over the
// engines, so each engine counts equally.
func mixedWire(o opts, tr *tracer, r *result) error {
	var setups []setupTimes
	var ss []*served
	for k := 0; k < o.setups; k++ {
		closeServed(ss)
		runtime.GC()
		var t setupTimes
		var err error
		if ss, t, err = mixedSetup(o, tr, k); err != nil {
			return err
		}
		setups = append(setups, t)
	}
	defer closeServed(ss)
	r.addSetup(setups)

	params := workload.Params(core.DCMD)
	var p50s, p90s, u50s, u90s, qmeds, effs, qpss, traced []float64
	var exec50, work, wireOver, journalOver, explain []float64
	lay, ulay := newLayers(), newLayers()
	var ops, items, probes int
	var rejected, admitted, journalBytes int64
	var updates int
	var live metrics.Counter
	restartPeakRSS(r)
	gc0 := readGC()
	for _, s := range ss {
		mix := pinnedMix(core.DCMD, s.name)
		for _, q := range mix { // warm the pool; every pinned query must answer
			r.Attempted++
			if _, err := s.cli.Execute(bg, q, params); err != nil {
				r.fail(false, "%s warm-up %s: %v", s.name, q, err)
			}
		}
		// Traced, a client-side wrapper times every round trip, and the
		// engine-side wrapper's warm-up samples are dropped.
		var target core.Engine = s.cli
		var cw, sw *timed
		if tr != nil {
			cw, sw = wrap(s.cli, tr, "client"), s.eng.(*timed)
			target = cw
			sw.exec.take()
			sw.upd.take()
		}
		regs := []*metrics.Registry{registryOf(s.eng)}
		before := snapshots(regs)
		srvBefore := s.srv.Metrics().Snapshot()
		var seq atomicInt
		runtime.GC() // each engine starts its window from a collected heap
		stop := make(chan struct{})
		var waits []func()
		if tr != nil {
			waits = append(waits, tr.toggle(250*time.Millisecond, stop), sampleLive(s.eng, &live, stop))
		}
		recs, window := closedLoop(o, mix, mixedUpdateEvery, time.Duration(mixedShare[s.name]*float64(o.seconds)), func(ctx context.Context, op driver.MixedOp) opRec {
			rec := opRec{traced: tr.active()}
			if op.Update != 0 {
				ctx, id := tr.begin(ctx, "op.update")
				m := workload.RunUpdateOp(ctx, target, core.DCMD, op.Update, seq.next())
				tr.end(id)
				rec.update, rec.wall = op.Update, ms(m.Elapsed)
				if m.Err != nil {
					// Only a read-back that answered with the wrong
					// visibility is a wrong answer; a failed call is an error.
					rec.err = m.Err.Error()
					rec.wrong = strings.Contains(rec.err, "visible after")
				}
				return rec
			}
			ctx, id := tr.begin(ctx, "op.query")
			start := time.Now()
			res, err := target.Execute(ctx, op.Query, params)
			rec.wall = ms(time.Since(start))
			tr.end(id)
			rec.query, rec.items = op.Query, len(res.Items)
			rec.eff = rec.wall + ms(time.Duration(res.PageIO)*ioCost)
			if err != nil {
				rec.err = err.Error()
			}
			return rec
		})
		close(stop)
		for _, w := range waits {
			w()
		}
		st := summarize(recs, r, s.name)
		code := engineCode(s.name)
		p50s, p90s = append(p50s, median(st.walls)), append(p90s, quantile(st.walls, 0.9))
		u50s, u90s = append(u50s, median(st.updates)), append(u90s, quantile(st.updates, 0.9))
		qmeds, effs = append(qmeds, geomean(st.cellMed)), append(effs, geomean(st.cellEff))
		qpss = append(qpss, float64(st.reads+st.ups)/window.Seconds())
		r.add("read_p50_ms."+code, "ms", median(st.walls), len(st.walls))
		r.add("read_p90_ms."+code, "ms", quantile(st.walls, 0.9), len(st.walls))
		r.add("update_p50_ms."+code, "ms", median(st.updates), len(st.updates))
		r.add("update_p90_ms."+code, "ms", quantile(st.updates, 0.9), len(st.updates))
		r.add("qps."+code, "1/s", float64(st.reads+st.ups)/window.Seconds(), st.reads+st.ups)
		if b := beyond(len(st.updates), 0.9); b < 10 {
			r.note("%s: update_p90_ms has only %d samples beyond it", s.name, b)
		}
		if b := beyond(len(st.walls), 0.9); b < 10 {
			r.note("%s: read_p90_ms has only %d samples beyond it", s.name, b)
		}
		if tr == nil {
			continue
		}

		lay.since(regs, before)
		ops += st.reads + st.ups
		items += st.items
		updates += st.ups
		d := s.srv.Metrics().Snapshot().Delta(srvBefore)
		rejected += d.Get("server.req.rejected")
		admitted += d.Get("server.req.admitted")
		if fi, err := os.Stat(s.journal); err == nil {
			journalBytes += fi.Size()
		}
		traced = append(traced, st.tracedRatio...)
		ex, up := sw.exec.take(), sw.upd.take()
		cex, cup := cw.exec.take(), cw.upd.take()
		exec50 = append(exec50, median(ex))
		work = append(work, ratio(sum(ex), float64(len(cex))))
		wireOver = append(wireOver, mean(cex)-mean(ex))
		journalOver = append(journalOver, mean(cup)-mean(up))
		r.add("engine.execute_ms_p50."+code, "ms", median(ex), len(ex))
		r.add("engine.update_ms_p50."+code, "ms", median(up), len(up))
		xs, err := explainTimes(s.eng, core.DCMD, mix, 3)
		if err != nil {
			return err
		}
		explain = append(explain, xs...)
		n, err := updateProbe(s, ulay, seq.next)
		if err != nil {
			return err
		}
		probes += n
	}
	gc1 := readGC()
	r.add("query_ms_geomean", "ms", geomean(qmeds), len(qmeds))
	r.add("effective_ms_geomean", "ms", geomean(effs), len(effs))
	r.add("read_p50_ms", "ms", geomean(p50s), len(p50s))
	r.add("read_p90_ms", "ms", geomean(p90s), len(p90s))
	r.add("qps", "1/s", geomean(qpss), len(qpss))
	r.add("update_p50_ms", "ms", geomean(u50s), len(u50s))
	r.add("update_p90_ms", "ms", geomean(u90s), len(u90s))
	if tr == nil {
		return nil
	}
	r.addReadLayers(lay, ops, items)
	r.addUpdateLayers(ulay, probes)
	r.add("mvcc.live_versions_max", "count", float64(live.Value()), len(ss))
	r.add("plan.explain_us_p50", "us", median(explain), len(explain))
	r.add("engine.execute_ms_p50", "ms", geomean(exec50), len(exec50))
	r.add("engine.work_ms_per_query", "ms", geomean(work), len(work))
	r.add("wire.read_overhead_ms_mean", "ms", mean(wireOver), len(wireOver))
	r.add("journal.update_overhead_ms_mean", "ms", mean(journalOver), len(journalOver))
	r.add("server.rejected_ratio", "ratio", ratio(float64(rejected), float64(rejected+admitted)), int(rejected+admitted))
	r.add("journal.bytes_per_update", "B", ratio(float64(journalBytes), float64(updates)), updates)
	r.add("router.scatter_share", "ratio", 0, 0)
	r.addGC(gc0, gc1, ops)
	r.add("trace.overhead_pct", "%", 100*(geomean(traced)-1), len(traced))
	return nil
}

// updateProbe runs U1, U2 and U3 once each, serially, on one served
// engine and adds the engine's counters for the update call alone (not
// its set-up or read-back) to l. Concurrent runs cannot split counters
// between reads and updates; this probe can.
func updateProbe(s *served, l layers, next func() int) (int, error) {
	reg := registryOf(s.eng)
	for _, op := range workload.UpdateOps {
		seq := next()
		name, doc := workload.UpdateDoc(core.DCMD, seq, 0)
		if op != workload.U1 {
			if err := s.cli.ReplaceDocument(bg, name, doc); err != nil {
				return 0, fmt.Errorf("%s probe %s set-up: %w", s.name, op, err)
			}
		}
		before := reg.Snapshot()
		var err error
		switch op {
		case workload.U1:
			err = s.cli.InsertDocument(bg, name, doc)
		case workload.U2:
			_, doc1 := workload.UpdateDoc(core.DCMD, seq, 1)
			err = s.cli.ReplaceDocument(bg, name, doc1)
		default:
			err = s.cli.DeleteDocument(bg, name)
		}
		if err != nil {
			return 0, fmt.Errorf("%s probe %s: %w", s.name, op, err)
		}
		l.add(reg.Snapshot().Delta(before))
	}
	return len(workload.UpdateOps), nil
}

// sampleLive polls the engine's live MVCC page versions into c (a
// high-water gauge) until stop is closed; the returned func waits for
// the poller to exit.
func sampleLive(e core.Engine, c *metrics.Counter, stop <-chan struct{}) func() {
	done := make(chan struct{})
	p := pagerOf(e)
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if p != nil {
					c.SetMax(int64(p.LiveVersions()))
				}
			}
		}
	}()
	return func() { <-done }
}
