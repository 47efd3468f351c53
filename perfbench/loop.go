package main

import (
	"context"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xbench/internal/core"
	"xbench/internal/driver"
	"xbench/internal/workload"
)

// opRec is the outcome of one closed-loop op.
type opRec struct {
	query  core.QueryID      // set for a read
	update workload.UpdateOp // set for an update
	wall   float64           // ms, as the client saw it
	eff    float64           // ms, wall + PageIO x IOCost (reads)
	items  int
	traced bool
	err    string
	wrong  bool
}

// clients is the number of closed-loop client goroutines: the host has
// two CPUs, and more clients would measure the scheduler.
const clients = 2

// streamLen bounds each client's pre-drawn op stream; a client that gets
// through it wraps around.
const streamLen = 1 << 15

// opStream returns one client's first n ops. Reads come in rounds that
// hold every query of the mix once, each round in its own seeded order,
// and when updateEvery > 0 every updateEvery-th op is an update, cycling
// through U1, U2 and U3. A stream drawn op by op (driver.MixedOpSequence)
// lets the number of updates and the share of each query type in a run
// vary by several per cent from seed to seed, and every throughput and
// percentile with them.
func opStream(seed uint64, client int, mix []core.QueryID, updateEvery, n int) []driver.MixedOp {
	rng := rand.New(rand.NewPCG(seed, uint64(client)))
	out := make([]driver.MixedOp, 0, n)
	var round []core.QueryID
	for len(out) < n {
		if updateEvery > 0 && len(out)%updateEvery == updateEvery-1 {
			k := len(out)/updateEvery + client
			out = append(out, driver.MixedOp{Update: workload.UpdateOps[k%len(workload.UpdateOps)]})
			continue
		}
		if len(round) == 0 {
			round = slices.Clone(mix)
			rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		}
		out = append(out, driver.MixedOp{Query: round[0]})
		round = round[1:]
	}
	return out
}

// closedLoop runs one goroutine per client, each issuing the next op of
// its own seeded stream as soon as the previous one answers, until d has
// elapsed. It returns every op's record and the measured window.
func closedLoop(o opts, mix []core.QueryID, updateEvery int, d time.Duration,
	do func(ctx context.Context, op driver.MixedOp) opRec) ([]opRec, time.Duration) {
	recs := make([][]opRec, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		ops := opStream(o.opSeed, c, mix, updateEvery, streamLen)
		wg.Add(1)
		go func(c int, ops []driver.MixedOp) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				recs[c] = append(recs[c], do(bg, ops[i%len(ops)]))
			}
		}(c, ops)
	}
	wg.Wait()
	window := time.Since(start)
	var out []opRec
	for _, rs := range recs {
		out = append(out, rs...)
	}
	return out, window
}

// readStats summarizes the reads of one engine's records.
type readStats struct {
	walls       []float64 // every read, untraced stretches only
	cellMed     []float64 // per query type: median wall
	cellEff     []float64 // per query type: median effective time
	tracedWalls []float64
	// per query type with reads in both kinds of stretch: median traced
	// wall over median untraced wall, so the mix of types does not count
	tracedRatio []float64
	updates     []float64 // untraced update walls
	reads, ups  int       // all completed reads and updates
	items       int
}

func summarize(recs []opRec, r *result, label string) readStats {
	var s readStats
	byQ := map[core.QueryID][]float64{}
	effQ := map[core.QueryID][]float64{}
	tracedQ := map[core.QueryID][]float64{}
	for _, rec := range recs {
		r.Attempted++
		if rec.err != "" {
			r.fail(rec.wrong, "%s %s: %s", label, opName(rec), rec.err)
			continue
		}
		if rec.update != 0 {
			s.ups++
			if !rec.traced {
				s.updates = append(s.updates, rec.wall)
			}
			continue
		}
		s.reads++
		s.items += rec.items
		if rec.traced {
			s.tracedWalls = append(s.tracedWalls, rec.wall)
			tracedQ[rec.query] = append(tracedQ[rec.query], rec.wall)
			continue
		}
		s.walls = append(s.walls, rec.wall)
		byQ[rec.query] = append(byQ[rec.query], rec.wall)
		effQ[rec.query] = append(effQ[rec.query], rec.eff)
	}
	for q, xs := range byQ {
		s.cellMed = append(s.cellMed, median(xs))
		s.cellEff = append(s.cellEff, median(effQ[q]))
		if ts := tracedQ[q]; len(ts) > 0 {
			s.tracedRatio = append(s.tracedRatio, median(ts)/median(xs))
		}
	}
	return s
}

// atomicInt hands out consecutive update sequence numbers.
type atomicInt struct{ atomic.Int64 }

func (a *atomicInt) next() int { return int(a.Add(1)) - 1 }

func opName(rec opRec) string {
	if rec.update != 0 {
		return rec.update.String()
	}
	return rec.query.String()
}
