package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"xbench/internal/bench"
	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/gen"
	"xbench/internal/metrics"
	"xbench/internal/router"
	"xbench/internal/server"
	"xbench/internal/workload"
)

const (
	routedShards = 3
	routedEngine = "Xcollection"
)

// routedMix is the routed read mix: the queries Xcollection is pinned to
// answer on DC/MD, less the two whose answer is not the union of
// per-shard answers, which is all the router gathers: Q3 sums over every
// order, and Q19 joins an order with a customer that may live on another
// shard.
func routedMix() []core.QueryID {
	return slices.DeleteFunc(pinnedMix(core.DCMD, routedEngine), func(q core.QueryID) bool {
		return q == core.Q3 || q == core.Q19
	})
}

// cluster is the routed workload's system: shard servers behind a router.
type cluster struct {
	engines []core.Engine // as handed to the shard servers
	servers []*server.Server
	rt      *router.Router
}

func (c *cluster) close() {
	if c.rt != nil {
		c.rt.Close()
	}
	for _, s := range c.servers {
		ctx, cancel := context.WithTimeout(bg, 10*time.Second)
		s.Shutdown(ctx)
		cancel()
	}
}

// routedSetup starts the shard servers and the router and loads the
// database through the router, which partitions it over its hash ring.
func routedSetup(o opts, tr *tracer, db *core.Database) (*cluster, error) {
	c := &cluster{}
	var shards []router.Shard
	for i := 0; i < routedShards; i++ {
		var e core.Engine = o.newEngine(routedEngine)
		if tr != nil {
			e = wrap(e, tr, fmt.Sprintf("shard%d", i))
		}
		srv := server.New(e, server.Config{})
		c.engines = append(c.engines, e)
		c.servers = append(c.servers, srv)
		if err := srv.Start(); err != nil {
			c.close()
			return nil, err
		}
		shards = append(shards, router.Shard{Primary: srv.Addr().String()})
	}
	rt, err := router.Dial(shards, router.Config{})
	if err != nil {
		c.close()
		return nil, err
	}
	c.rt = rt
	if _, err := rt.Load(bg, db); err != nil {
		c.close()
		return nil, fmt.Errorf("routed load: %w", err)
	}
	if err := rt.BuildIndexes(workload.Indexes(db.Class)); err != nil {
		c.close()
		return nil, fmt.Errorf("routed index: %w", err)
	}
	return c, nil
}

// sortedItems is a result as a sorted multiset: scatter order is not
// guaranteed, so routed answers are compared without it.
func sortedItems(res core.Result) []string {
	s := slices.Clone(res.Items)
	slices.Sort(s)
	return s
}

// unshardedAnswers loads db into one in-process Xcollection and returns
// its answer to each query as a sorted multiset. The engine is closed
// before the measured phase, so its pages do not count in peak_rss_mb.
func unshardedAnswers(db *core.Database, mix []core.QueryID, params core.Params) (map[core.QueryID][]string, error) {
	ref := bench.NewEngine(routedEngine)
	defer ref.Close()
	if _, _, err := workload.LoadAndIndex(bg, ref, db); err != nil {
		return nil, fmt.Errorf("reference load: %w", err)
	}
	want := map[core.QueryID][]string{}
	for _, q := range mix {
		res, err := ref.Execute(bg, q, params)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q, err)
		}
		want[q] = sortedItems(res)
	}
	return want, nil
}

// routedRead drives read-only closed-loop clients through a router over
// Xcollection shards and checks every answer against an unsharded
// in-process Xcollection holding the same database.
func routedRead(o opts, tr *tracer, r *result) error {
	class := core.DCMD
	var setups []setupTimes
	var cl *cluster
	var db *core.Database
	for k := 0; k < o.setups; k++ {
		if cl != nil {
			cl.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if db, err = (gen.Config{Seed: o.genSeed}).Generate(class, o.routedSize); err != nil {
			return err
		}
		t := setupTimes{gen: time.Since(start).Seconds()}
		if cl, err = routedSetup(o, tr, db); err != nil {
			return err
		}
		t.total = time.Since(start).Seconds()
		// The shards load in parallel: the slowest one is the load time.
		for _, e := range cl.engines {
			if w, ok := e.(*timed); ok {
				t.load = max(t.load, sum(w.load.take())/1000)
				t.index = max(t.index, sum(w.index.take())/1000)
			}
		}
		setups = append(setups, t)
	}
	defer cl.close()
	r.addSetup(setups)
	ring := router.NewRing(routedShards, router.DefaultVnodes)
	var perShard [routedShards]int
	for _, d := range db.Docs {
		perShard[ring.Owner(d.Name)]++
	}
	r.note("routed-read: %d documents over %d shards %v", len(db.Docs), routedShards, perShard)

	runtime.GC()
	mix := routedMix()
	params := workload.Params(class)
	want, err := unshardedAnswers(db, mix, params)
	if err != nil {
		return err
	}
	check := func(q core.QueryID, res core.Result) string {
		if got := sortedItems(res); !slices.Equal(got, want[q]) {
			return fmt.Sprintf("routed answer (%d items) differs from the unsharded one (%d items)", len(got), len(want[q]))
		}
		return ""
	}
	for _, q := range mix { // warm the pools; every pinned query must answer
		r.Attempted++
		res, err := cl.rt.Execute(bg, q, params)
		if err != nil {
			r.fail(false, "warm-up %s: %v", q, err)
		} else if msg := check(q, res); msg != "" {
			r.fail(true, "warm-up %s: %s", q, msg)
		}
	}

	regs := make([]*metrics.Registry, len(cl.engines))
	for i, e := range cl.engines {
		regs[i] = registryOf(e)
		if w, ok := e.(*timed); ok {
			w.exec.take()
		}
	}
	before := snapshots(regs)
	rtBefore := cl.rt.Metrics().Snapshot()
	srvRegs := make([]*metrics.Registry, len(cl.servers))
	for i, s := range cl.servers {
		srvRegs[i] = s.Metrics()
	}
	srvBefore := snapshots(srvRegs)
	stop := make(chan struct{})
	var wait func()
	if tr != nil {
		wait = tr.toggle(250*time.Millisecond, stop)
	}
	restartPeakRSS(r)
	gc0 := readGC()
	recs, window := closedLoop(o, mix, 0, o.seconds, func(ctx context.Context, op driver.MixedOp) opRec {
		rec := opRec{query: op.Query, traced: tr.active()}
		ctx, id := tr.begin(ctx, "router.execute")
		start := time.Now()
		res, err := cl.rt.Execute(ctx, op.Query, params)
		rec.wall = ms(time.Since(start))
		tr.end(id)
		rec.eff = rec.wall + ms(time.Duration(res.PageIO)*ioCost)
		rec.items = len(res.Items)
		if err != nil {
			rec.err = err.Error()
		} else if msg := check(op.Query, res); msg != "" {
			rec.err, rec.wrong = msg, true
		}
		return rec
	})
	gc1 := readGC()
	close(stop)
	if wait != nil {
		wait()
	}
	st := summarize(recs, r, "routed")
	r.add("query_ms_geomean", "ms", geomean(st.cellMed), len(st.cellMed))
	r.add("effective_ms_geomean", "ms", geomean(st.cellEff), len(st.cellEff))
	r.addLatency("read", st.walls)
	r.add("qps", "1/s", float64(st.reads)/window.Seconds(), st.reads)
	if tr == nil {
		return nil
	}

	lay := newLayers()
	lay.since(regs, before)
	r.addReadLayers(lay, st.reads, st.items)
	r.addUpdateLayers(newLayers(), 0)
	var exec []float64
	for _, e := range cl.engines {
		exec = append(exec, e.(*timed).exec.take()...)
	}
	var live int
	for _, e := range cl.engines {
		live = max(live, pagerOf(e).LiveVersions())
	}
	r.add("mvcc.live_versions_max", "count", float64(live), len(cl.engines))
	xs, err := explainTimes(cl.engines[0], class, mix, 3)
	if err != nil {
		return err
	}
	r.add("plan.explain_us_p50", "us", median(xs), len(xs))
	r.add("engine.execute_ms_p50", "ms", median(exec), len(exec))
	r.add("engine.work_ms_per_query", "ms", ratio(sum(exec), float64(len(st.tracedWalls))), len(st.tracedWalls))
	r.add("router.execute_ms_mean", "ms", mean(st.tracedWalls), len(st.tracedWalls))
	r.add("wire.read_overhead_ms_mean", "ms", mean(st.tracedWalls)-mean(exec), len(exec))
	var rejected, admitted int64
	for i, reg := range srvRegs {
		d := reg.Snapshot().Delta(srvBefore[i])
		rejected += d.Get("server.req.rejected")
		admitted += d.Get("server.req.admitted")
	}
	r.add("server.rejected_ratio", "ratio", ratio(float64(rejected), float64(rejected+admitted)), int(rejected+admitted))
	r.add("journal.bytes_per_update", "B", 0, 0)
	rd := cl.rt.Metrics().Snapshot().Delta(rtBefore)
	var scatterLegs, routed int64
	for i := 0; i < routedShards; i++ {
		scatterLegs += rd.Get(fmt.Sprintf("router.shard.%d.scatter", i))
		routed += rd.Get(fmt.Sprintf("router.shard.%d.routed", i))
	}
	scattered := float64(scatterLegs) / routedShards
	r.add("router.scatter_share", "ratio", ratio(scattered, scattered+float64(routed)), st.reads)
	r.addGC(gc0, gc1, st.reads)
	r.add("trace.overhead_pct", "%", 100*(geomean(st.tracedRatio)-1), len(st.tracedRatio))
	return nil
}
