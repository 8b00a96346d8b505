package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"tokenmagic/internal/obs/trace"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run prints; every one is measured on
// every workload. On miner-replay a "spend" is a client-signed submission:
// spend_rps counts those admitted and mined, and spend latency is the
// /v1/submit round trip.
var endToEnd = []metricDef{
	{"setup_s", "s"},             // chain, keys and node construction (miner-replay: plus client-side ring generation and store seeding); median of the run's setups
	{"spend_rps", "1/s"},         // spends committed per second of load, over all rounds
	{"spend_p50_ms", "ms"},       // spend latency: request sent to reply read
	{"spend_p95_ms", "ms"},       // pooled over the rounds: thousands of spends, but about 150 (7 beyond p95) on spend-l800
	{"ring_size_mean", "tokens"}, // mean committed ring size: the fee the paper minimises
	{"anon_eff_mean", "tokens"},  // mean effective anonymity-set size under the DM attack over the final ledger
	{"reopen_s", "s"},            // close the node (and store), reopen, until the first /v1/status answers
	{"rss_p99_mb", "MiB"},        // resident memory: the 99th percentile over a round's time (see memLevel)
}

// perLayer are the metrics a --trace 1 run prints. A layer a workload never
// reaches reads 0. README.md lists the end-to-end metric each should move.
var perLayer = []metricDef{
	{"nodesvc.overhead_ms", "ms"},
	{"obs.shed_frac", "ratio"},
	{"node.stale_retries_per_spend", "count"},
	{"node.mine_dropped_frac", "ratio"},
	{"node.mine_p50_ms", "ms"},
	{"tokenmagic.sample_ms", "ms"},
	{"tokenmagic.candidate_self_us", "us"},
	{"tokenmagic.solves_per_spend", "count"},
	{"tokenmagic.candidate_yield", "ratio"},
	{"tokenmagic.allocs_per_spend", "count"},
	{"tokenmagic.decomp_hit_rate", "ratio"},
	{"tokenmagic.verify_ms", "ms"},
	{"tokenmagic.commit_self_ms", "ms"},
	{"tokenmagic.rebuild_s", "s"},
	{"selector.solve_us", "us"},
	{"ringsig.sign_ms", "ms"},
	{"ringsig.verify_ms", "ms"},
	{"ringsig.verify_us_per_member", "us"},
	{"ringsig.verify_batch_ms", "ms"},
	{"ringsig.batch_cache_hit_rate", "ratio"},
	{"store.append_us", "us"},
	{"store.committed_us", "us"},
	{"store.bytes_per_ring", "B"},
	{"store.open_s", "s"},
	{"store.replayed_ops", "count"},
	{"rsgraph.dm_ms", "ms"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

// check fails unless the result carries exactly the metrics of its kind,
// each a finite number, and at least one attempted operation.
func (r *result) check(traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics set, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	return nil
}

// timedSetup runs setup after a collection, so one setup's garbage is not
// charged to the next, and returns how long it took.
func timedSetup[T any](setup func() (T, error)) (T, float64, error) {
	runtime.GC()
	start := time.Now()
	fx, err := setup()
	return fx, time.Since(start).Seconds(), err
}

// roundFigures is what one round of an end-to-end run measured: its
// operations' latencies (ms), the operations it committed and how long its
// load took, its reopen time and its memory level.
type roundFigures struct {
	lat        []float64
	committed  int
	elapsed    time.Duration
	reopen, mb float64
}

// log reports the round on standard error, where the spread between a
// run's rounds shows how steady the host was.
func (f roundFigures) log(i int, took time.Duration) {
	logf("round %d: %d ops in %.1f s, p50 %.3f ms, p95 %.3f ms, %.2f/s, reopen %.4f s, rss p99 %.1f MiB",
		i, len(f.lat), took.Seconds(), quantile(f.lat, 0.5), quantile(f.lat, 0.95), float64(f.committed)/f.elapsed.Seconds(), f.reopen, f.mb)
}

// setTimings sets the metrics measured in time and memory. Throughput and
// the latency quantiles pool every round's operations, so the tail holds
// enough of them. Reopen time and memory are medians over rounds: CPU
// taken by other tenants of a shared host for a few seconds, or a
// collection that lands at a round's busiest moment, moves one round's
// figure and not the run's. setup_s is the median of the run's setups.
func setTimings(res *result, rounds []roundFigures, setups []float64) {
	var lat, reopen, mb []float64
	var committed int
	var elapsed time.Duration
	for _, f := range rounds {
		lat = append(lat, f.lat...)
		committed += f.committed
		elapsed += f.elapsed
		reopen = append(reopen, f.reopen)
		mb = append(mb, f.mb)
	}
	res.set("setup_s", median(setups))
	res.set("spend_rps", float64(committed)/elapsed.Seconds())
	res.set("spend_p50_ms", quantile(lat, 0.5))
	res.set("spend_p95_ms", quantile(lat, 0.95))
	res.set("reopen_s", median(reopen))
	res.set("rss_p99_mb", median(mb))
}

func spendEndToEnd(p *params) (*result, error) {
	res := newResult()
	var setups, sizes, anon []float64
	var figs []roundFigures
	err := measureRounds(p, func(i int) error {
		start := time.Now()
		mem := startMemLevel()
		fx, s, err := timedSetup(func() (*spendFixture, error) { return setupSpend(p) })
		if err != nil {
			mem.stop()
			return err
		}
		setups = append(setups, s)
		r, err := runSpendRound(p, fx, load{clients: clients, spends: p.spends, round: i})
		mb := mem.stop()
		if err != nil {
			return err
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		f := roundFigures{lat: durationsMS(r.latency), committed: len(r.latency), elapsed: r.elapsed, reopen: r.restart, mb: mb}
		f.log(i, time.Since(start))
		figs = append(figs, f)
		sizes = append(sizes, r.ringSize...)
		anon = append(anon, r.anon)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for len(setups) < p.setups {
		_, s, err := timedSetup(func() (*spendFixture, error) { return setupSpend(p) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	setTimings(res, figs, setups)
	res.set("ring_size_mean", mean(sizes))
	res.set("anon_eff_mean", median(anon))
	return res, nil
}

func replayEndToEnd(p *params) (*result, error) {
	res := newResult()
	var setups, sizes, anon []float64
	var figs []roundFigures
	err := measureRounds(p, func(i int) error {
		start := time.Now()
		mem := startMemLevel()
		fx, s, err := timedSetup(func() (*replayFixture, error) { return setupReplay(p, i, p.roundDir(i), false) })
		if err != nil {
			mem.stop()
			return err
		}
		setups = append(setups, s)
		r, err := runReplayRound(p, fx, false)
		mb := mem.stop()
		if err != nil {
			return err
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		f := roundFigures{lat: durationsMS(r.submit), committed: r.mined, elapsed: r.elapsed, reopen: r.reopen, mb: mb}
		f.log(i, time.Since(start))
		figs = append(figs, f)
		for _, sr := range fx.rings {
			sizes = append(sizes, float64(len(sr.sub.Tokens)))
		}
		anon = append(anon, r.anon)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := len(figs); len(setups) < p.setups; i++ {
		fx, s, err := timedSetup(func() (*replayFixture, error) { return setupReplay(p, i, p.roundDir(i), false) })
		if err != nil {
			return nil, err
		}
		if err := fx.st.Close(); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	setTimings(res, figs, setups)
	res.set("ring_size_mean", mean(sizes))
	res.set("anon_eff_mean", median(anon))
	return res, nil
}

// overheadMS lists, per traced request, the client's round trip minus the
// node-side trace: HTTP transport and the client itself.
func overheadMS(service map[int]time.Duration, traces map[int]trace.TraceJSON) []float64 {
	var out []float64
	for seq, d := range service {
		if t, ok := traces[seq]; ok {
			out = append(out, ms(d)-float64(t.DurUS)/1e3)
		}
	}
	return out
}

// setLayers fills the span-derived per-layer metrics shared by every
// workload from the request traces (req) and the benchmark's own spans
// (bench: reopen, audit, client-side generation).
func setLayers(res *result, req, bench *spanAgg) error {
	if req.dropped > 0 || bench.dropped > 0 {
		return fmt.Errorf("traced run: traces dropped %d spans", req.dropped+bench.dropped)
	}
	both := newSpanAgg()
	both.merge(req)
	both.merge(bench)
	res.set("tokenmagic.sample_ms", both.meanUS("sample")/1e3)
	res.set("tokenmagic.candidate_self_us", both.meanSelfUS("candidate"))
	res.set("tokenmagic.verify_ms", req.meanUS("verify")/1e3)
	res.set("tokenmagic.commit_self_ms", req.meanSelfUS("commit")/1e3)
	res.set("tokenmagic.rebuild_s", both.meanUS("node-new")/1e6)
	res.set("selector.solve_us", both.meanUS("solve"))
	res.set("ringsig.sign_ms", both.meanUS("sign")/1e3)
	res.set("ringsig.verify_ms", req.meanUS("verify-sig")/1e3)
	res.set("ringsig.verify_us_per_member", ratio(float64(req.durUS["verify-sig"]), float64(req.ann["verify-sig.ring_size"])))
	res.set("ringsig.verify_batch_ms", req.meanUS("verify-batch")/1e3)
	res.set("ringsig.batch_cache_hit_rate", ratio(float64(req.ann["verify-batch.cache_hits"]), float64(req.ann["verify-batch.batch_size"])))
	res.set("store.open_s", both.meanUS("store-open")/1e6)
	res.set("rsgraph.dm_ms", both.meanUS("dm")/1e3)
	res.set("trace.unattributed_frac", req.unattributedFrac())
	return nil
}

func spendLayers(p *params) (*result, error) {
	// The first pass warms the process's lazily built state; the next two
	// must then agree exactly.
	var first, second countResult
	for i := 0; i < 3; i++ {
		c, err := countPass(p)
		if err != nil {
			return nil, err
		}
		first, second = second, c
	}
	if !first.repeats(second) {
		return nil, fmt.Errorf("count pass did not repeat: %+v, then %+v", first, second)
	}
	first.mallocs = min(first.mallocs, second.mallocs)

	// The traced pair (untraced, then traced) runs at the workload's load
	// unless the spec gives a traced load of its own. The counters that need
	// the workload's concurrency then come from an extra untraced round at
	// the workload's load.
	work := load{clients: clients, spends: p.spends}
	shape := work
	if p.traceClients > 0 {
		shape = load{clients: p.traceClients, spends: p.traceSpends}
	}
	var all, worked, plain, traced []*spendRound
	round := func(ld load) (*spendRound, error) {
		fx, err := setupSpend(p)
		if err != nil {
			return nil, err
		}
		r, err := runSpendRound(p, fx, ld)
		if err == nil {
			all = append(all, r)
		}
		return r, err
	}
	err := measureRounds(p, func(i int) error {
		work.round, shape.round = i, i
		if shape != work {
			r, err := round(work)
			if err != nil {
				return err
			}
			worked = append(worked, r)
		}
		for _, tr := range []bool{false, true} {
			ld := shape
			ld.traced = tr
			r, err := round(ld)
			if err != nil {
				return err
			}
			if tr {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
			if shape == work {
				worked = append(worked, r)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	req, bench := newSpanAgg(), newSpanAgg()
	var overhead, plainLat, tracedLat []float64
	var tried, done, retries, hits, misses, shed float64
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	for _, r := range worked {
		tried += float64(r.attempted)
		done += float64(len(r.latency))
		retries += float64(r.counters["node.spend.retry.stale_epoch"])
		hits += float64(r.counters["framework.decomp.cache_hits"])
		misses += float64(r.counters["framework.decomp.cache_misses"])
		shed += float64(r.shed)
	}
	for _, r := range plain {
		plainLat = append(plainLat, durationsMS(r.latency)...)
	}
	for _, r := range traced {
		tracedLat = append(tracedLat, durationsMS(r.latency)...)
		for _, t := range r.traces {
			req.add(t)
		}
		for _, t := range r.bench {
			bench.add(t)
		}
		overhead = append(overhead, overheadMS(r.service, r.traces)...)
	}
	if err := setLayers(res, req, bench); err != nil {
		return nil, err
	}
	res.set("nodesvc.overhead_ms", median(overhead))
	res.set("obs.shed_frac", ratio(shed, tried))
	res.set("node.stale_retries_per_spend", ratio(retries, done))
	res.set("node.mine_dropped_frac", 0)
	res.set("node.mine_p50_ms", 0)
	res.set("tokenmagic.solves_per_spend", ratio(float64(first.solves), float64(first.spends)))
	res.set("tokenmagic.candidate_yield", ratio(float64(first.candidates), float64(first.solves)))
	res.set("tokenmagic.allocs_per_spend", ratio(float64(first.mallocs), float64(first.spends)))
	res.set("tokenmagic.decomp_hit_rate", ratio(hits, hits+misses))
	res.set("store.append_us", 0)
	res.set("store.committed_us", 0)
	res.set("store.bytes_per_ring", 0)
	res.set("store.replayed_ops", 0)
	res.set("trace.overhead_frac", ratio(quantile(tracedLat, 0.5), quantile(plainLat, 0.5))-1)
	return res, nil
}

func replayLayers(p *params) (*result, error) {
	var plain, traced []*replayRound
	bench := newSpanAgg()
	err := measureRounds(p, func(i int) error {
		for k, tr := range []bool{false, true} {
			fx, err := setupReplay(p, i, p.roundDir(2*i+k), tr)
			if err != nil {
				return err
			}
			r, err := runReplayRound(p, fx, tr)
			if err != nil {
				return err
			}
			if tr {
				traced = append(traced, r)
				bench.merge(fx.client)
			} else {
				plain = append(plain, r)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	req := newSpanAgg()
	var overhead, plainLat, tracedLat, mine []float64
	var mined, dropped, shed, appends, commits, bytes float64
	var appendUS, commitUS, replayed float64
	for _, r := range append(append([]*replayRound(nil), plain...), traced...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		shed += float64(r.shed)
	}
	for _, r := range plain {
		plainLat = append(plainLat, durationsMS(r.submit)...)
	}
	for _, r := range traced {
		tracedLat = append(tracedLat, durationsMS(r.submit)...)
		mine = append(mine, durationsMS(r.mine)...)
		for _, t := range r.traces {
			req.add(t)
		}
		for _, t := range r.bench {
			bench.add(t)
		}
		overhead = append(overhead, overheadMS(r.service, r.traces)...)
		mined += float64(r.counters["node.mine.rings"])
		dropped += float64(r.counters["node.mine.dropped"])
		appends += float64(r.appends)
		commits += float64(r.commits)
		appendUS += float64(r.appendDur.Microseconds())
		commitUS += float64(r.commitDur.Microseconds())
		bytes += float64(r.appendBytes)
		replayed += float64(r.reopenInfo.Replayed)
	}
	if err := setLayers(res, req, bench); err != nil {
		return nil, err
	}
	res.set("nodesvc.overhead_ms", median(overhead))
	res.set("obs.shed_frac", ratio(shed, float64(res.Attempted)))
	res.set("node.stale_retries_per_spend", 0)
	res.set("node.mine_dropped_frac", ratio(dropped, mined+dropped))
	res.set("node.mine_p50_ms", median(mine))
	res.set("tokenmagic.solves_per_spend", 0)
	res.set("tokenmagic.candidate_yield", 0)
	res.set("tokenmagic.allocs_per_spend", 0)
	res.set("tokenmagic.decomp_hit_rate", 0)
	res.set("store.append_us", ratio(appendUS, appends))
	res.set("store.committed_us", ratio(commitUS, commits))
	res.set("store.bytes_per_ring", ratio(bytes, mined))
	res.set("store.replayed_ops", ratio(replayed, float64(len(traced))))
	res.set("trace.overhead_frac", ratio(quantile(tracedLat, 0.5), quantile(plainLat, 0.5))-1)
	return res, nil
}
