package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/node"
	"tokenmagic/internal/nodesvc"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/trace"
	"tokenmagic/internal/ringsig"
	itm "tokenmagic/internal/tokenmagic"
)

// spendReq is the requirement every spend declares; the node solves for it
// with headroom, (c, ℓ+1).
var spendReq = diversity.Requirement{C: 1, L: 3}

// spendFixture is a fresh node over a fresh chain, keyed so the node can
// sign server-side (/v1/spend). The ledger stays in memory.
type spendFixture struct {
	led  *chain.Ledger
	keys map[chain.TokenID]*ringsig.PrivateKey
	reg  *obs.Registry
	node *node.Node
}

func setupSpend(p *params) (*spendFixture, error) {
	led, err := buildChain(p.tokens, p.counts)
	if err != nil {
		return nil, err
	}
	if _, err := checkBatches(led, p.lambda); err != nil {
		return nil, err
	}
	keys, err := node.GenerateKeys(rand.New(rand.NewSource(subSeed(p.seed, streamKeys))), led)
	if err != nil {
		return nil, fmt.Errorf("keys: %w", err)
	}
	reg := obs.NewRegistry()
	nd, err := node.New(led, node.Config{Framework: frameworkConfig(p.lambda, reg), Keys: keys})
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	return &spendFixture{led: led, keys: keys, reg: reg, node: nd}, nil
}

// spendRound is what one round of spends measured. A round drives a fixed
// number of spends at a fresh node, so every round ends at the same ledger
// height: spend latency grows with ring history.
type spendRound struct {
	attempted, failed int
	elapsed           time.Duration
	latency           []time.Duration         // per completed spend
	service           map[int]time.Duration   // per completed spend, by request
	ringSize          []float64               // per completed spend
	anon              float64                 // mean effective anonymity-set size (DM) over the final ledger
	counters          map[string]int64        // node and framework counters of the round's registry
	shed              int64                   // requests the admission gate refused
	restart           float64                 // seconds: a new node over the committed ledger, until /v1/status answers (median of reopens)
	traces            map[int]trace.TraceJSON // traced rounds: per request
	bench             []trace.TraceJSON       // the benchmark's own spans: restart (node-new), audit (dm)
}

type spendOutcome struct {
	res        nodesvc.SpendResponse
	err        error
	sent, done time.Time
}

// load is how a round drives the node: client goroutines, spends, whether
// each request is traced, and which of the run's target draws it spends.
type load struct {
	clients, spends int
	traced          bool
	round           int
}

// runSpendRound drives ld.spends spends of seeded targets, drawn without
// replacement, at fx's node through /v1/spend from ld.clients goroutines,
// each sending its next spend as soon as the last is answered. It then
// audits the ledger the node committed.
func runSpendRound(p *params, fx *spendFixture, ld load) (*spendRound, error) {
	targets, err := drawTargets(p.seed, ld.round, fx.led, p.lambda, ld.spends)
	if err != nil {
		return nil, err
	}
	targets = targets[:ld.spends]
	var sink *traceSink
	if ld.traced {
		sink = newTraceSink()
	}
	srv, err := startServer(fx.node, sink)
	if err != nil {
		return nil, err
	}
	cl := newClient(srv.url)
	outs := make([]spendOutcome, len(targets))
	shed0 := obs.Default().Counter("http.nodesvc.rejected_busy").Value()

	runtime.GC()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < ld.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(targets) {
					return
				}
				o := &outs[i]
				body, err := json.Marshal(nodesvc.SpendRequest{Target: targets[i], C: spendReq.C, L: spendReq.L})
				o.sent = time.Now()
				if err == nil {
					err = cl.post("/v1/spend", i, body, &o.res)
				}
				o.err, o.done = err, time.Now()
			}
		}()
	}
	wg.Wait()
	r := &spendRound{
		attempted: len(targets),
		elapsed:   time.Since(start),
		service:   make(map[int]time.Duration),
		shed:      obs.Default().Counter("http.nodesvc.rejected_busy").Value() - shed0,
	}
	cl.close()
	srv.stop()

	var images [][]byte
	for i, o := range outs {
		if o.err != nil {
			r.failed++
			logf("spend of token %v failed: %v", targets[i], o.err)
			continue
		}
		r.latency = append(r.latency, o.done.Sub(o.sent))
		r.service[i] = o.done.Sub(o.sent)
		r.ringSize = append(r.ringSize, float64(len(o.res.Ring)))
		images = append(images, fx.keys[targets[i]].KeyImage().Bytes())
	}
	if err := auditSpends(p, fx, targets, outs); err != nil {
		return nil, err
	}
	if err := uniqueImages(images); err != nil {
		return nil, err
	}
	ctx, finish := benchTrace("audit")
	r.anon = anonymity(ctx, fx.led.View())
	r.bench = append(r.bench, finish())
	var times []float64
	for k := 0; k < reopens; k++ {
		ctx, finish := benchTrace("reopen")
		runtime.GC()
		start := time.Now()
		nd, err := func() (*node.Node, error) {
			sp := trace.StartChild(ctx, "node-new")
			defer sp.End()
			return node.New(fx.led, node.Config{Framework: frameworkConfig(p.lambda, obs.NewRegistry()), Keys: fx.keys})
		}()
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		err = firstStatus(nd)
		times = append(times, time.Since(start).Seconds())
		r.bench = append(r.bench, finish())
		if err != nil {
			return nil, err
		}
	}
	r.restart = median(times)
	r.counters = counters(fx.reg, "node.spend.retry.stale_epoch", "framework.decomp.cache_hits", "framework.decomp.cache_misses")
	if sink != nil {
		r.traces = sink.traces()
	}
	return r, nil
}

// auditSpends checks the node's ledger against what the clients were told:
// each completed spend's ring holds its target and is on the ledger under
// the RSID the node returned, nothing else is, and every ring replays.
func auditSpends(p *params, fx *spendFixture, targets []chain.TokenID, outs []spendOutcome) error {
	v := fx.led.View()
	done := 0
	for i, o := range outs {
		if o.err != nil {
			continue
		}
		done++
		if !o.res.Ring.Contains(targets[i]) {
			return fmt.Errorf("audit: spend %d's ring %v misses its target %v", i, o.res.Ring, targets[i])
		}
		rec, err := v.RS(o.res.RSID)
		if err != nil || !rec.Tokens.Equal(o.res.Ring) {
			return fmt.Errorf("audit: spend %d's ring is not on the ledger as RSID %v", i, o.res.RSID)
		}
	}
	if v.NumRS() != done {
		return fmt.Errorf("audit: ledger holds %d rings for %d completed spends", v.NumRS(), done)
	}
	base, err := buildChain(p.tokens, p.counts)
	if err != nil {
		return err
	}
	return replayLedger(v.Rings(), base, p.lambda)
}

func counters(reg *obs.Registry, names ...string) map[string]int64 {
	out := make(map[string]int64, len(names))
	for _, n := range names {
		out[n] = reg.Counter(n).Value()
	}
	return out
}

// countResult is the deterministic count pass: work counts that depend only
// on the seed, so they repeat exactly from run to run.
type countResult struct {
	spends, solves, candidates, mallocs int64
}

// repeats reports whether two passes counted the same work. Solves and
// candidates must match exactly. The heap allocation count may differ by a
// few objects in millions: Go seeds every map's hash at random, and a map
// that also deletes (diversity.Histogram) grows at a point that depends on
// where its entries landed.
func (c countResult) repeats(o countResult) bool {
	d := c.mallocs - o.mallocs
	return c.spends == o.spends && c.solves == o.solves && c.candidates == o.candidates &&
		max(d, -d) <= max(c.mallocs, o.mallocs)/100_000
}

// countPass spends p.countSpends seeded targets from one client, in
// process, through a framework whose candidate sampling draws from a seeded
// rng: every candidate solve and every pick replays exactly. Each spend runs
// under a trace, whose "sample" span reports how many candidates contained
// the target; the heap allocation count includes those traces.
func countPass(p *params) (countResult, error) {
	led, err := buildChain(p.tokens, p.counts)
	if err != nil {
		return countResult{}, err
	}
	// One worker: the executor's rings are byte-identical at every
	// Parallelism, but its worker goroutines make the runtime's own
	// allocation count vary by a few objects from run to run.
	cfg := frameworkConfig(p.lambda, obs.NewRegistry())
	cfg.Parallelism = 1
	fw, err := itm.New(led, cfg, rand.New(rand.NewSource(subSeed(p.seed, streamSampling))))
	if err != nil {
		return countResult{}, fmt.Errorf("count pass: %w", err)
	}
	targets, err := drawTargets(p.seed, 0, led, p.lambda, p.countSpends)
	if err != nil {
		return countResult{}, err
	}
	targets = targets[:p.countSpends]
	cols := make([]*trace.Collector, len(targets))
	for i := range cols {
		cols[i] = trace.NewCollector()
	}
	// The heap allocation count repeats (to the few objects repeats allows)
	// only if the standard library's sync.Pools (fmt's printers among them)
	// hit and miss the same way every time. A collection empties them at a moment that depends on
	// timing, so the collector is off and runs once between spends instead;
	// and a pool keeps one object per processor, so the pass runs on one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mallocs uint64
	for i, t := range targets {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ctx, tr := trace.New(context.Background(), cols[i], "count")
		res, err := fw.GenerateRSContext(ctx, t, spendReq)
		if err == nil {
			_, err = fw.CommitCtx(ctx, res.Tokens, spendReq)
		}
		tr.Finish("done")
		runtime.ReadMemStats(&after)
		if err != nil {
			return countResult{}, fmt.Errorf("count pass: spend of token %v: %w", t, err)
		}
		mallocs += after.Mallocs - before.Mallocs
	}
	agg := newSpanAgg()
	for _, c := range cols {
		agg.add(only(c))
	}
	if agg.dropped > 0 {
		return countResult{}, fmt.Errorf("count pass: traces dropped %d spans", agg.dropped)
	}
	return countResult{
		spends:     int64(len(targets)),
		solves:     fw.Stats().Solves,
		candidates: agg.ann["sample.candidates"],
		mallocs:    int64(mallocs),
	}, nil
}
