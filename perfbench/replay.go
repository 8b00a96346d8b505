package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/node"
	"tokenmagic/internal/nodesvc"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/trace"
	"tokenmagic/internal/ringsig"
	"tokenmagic/internal/store"
	itm "tokenmagic/internal/tokenmagic"
)

// storeOptions is the miner's flush policy, the `tokenmagic serve` defaults:
// two shards, a snapshot every 512 ops, no fsync.
func storeOptions(lambda int, reg *obs.Registry) store.Options {
	return store.Options{Shards: 2, Lambda: lambda, SnapshotEvery: 512, Metrics: reg}
}

// timedJournal wraps the store's log to time each journal call: Append is
// the write-ahead record, Committed the epoch hook that takes snapshots.
type timedJournal struct {
	log *store.Log

	mu                   sync.Mutex
	appends, commits     int64
	appendDur, commitDur time.Duration
}

func (j *timedJournal) Append(op chain.Op) error {
	start := time.Now()
	err := j.log.Append(op)
	j.mu.Lock()
	j.appends++
	j.appendDur += time.Since(start)
	j.mu.Unlock()
	return err
}

func (j *timedJournal) Committed(v *chain.View) {
	start := time.Now()
	j.log.Committed(v)
	j.mu.Lock()
	j.commits++
	j.commitDur += time.Since(start)
	j.mu.Unlock()
}

// signedRing is one client-side spend: its target, the wire submission and
// the submission's JSON body.
type signedRing struct {
	target chain.TokenID
	body   []byte
	sub    nodesvc.SubmitRequest
}

// replayFixture is a miner over a store-backed ledger plus the rings a
// client generated for it.
type replayFixture struct {
	rings   []signedRing
	dir     string
	st      *store.Store
	journal *timedJournal
	reg     *obs.Registry
	node    *node.Node
	client  *spanAgg // client-side generation spans (traced runs)
}

// generateRings plays the wallets: a client-side framework over an identical
// chain selects a ring for each seeded target with a single solve, commits
// it locally so later rings respect it, and signs it. Fees fall with the
// sequence number, so the miner's fee order is the generation order.
// Targets whose selection the framework refuses are skipped.
func generateRings(p *params, round int, led *chain.Ledger, keys map[chain.TokenID]*ringsig.PrivateKey, traced bool) ([]signedRing, *spanAgg, error) {
	cfg := frameworkConfig(p.lambda, obs.NewRegistry())
	cfg.Randomize = false
	fw, err := itm.New(led, cfg, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("client framework: %w", err)
	}
	signRng := rand.New(rand.NewSource(roundSeed(p.seed, streamSigning, round)))
	agg := newSpanAgg()
	var out []signedRing
	targets, err := drawTargets(p.seed, round, led, p.lambda, p.rings)
	if err != nil {
		return nil, nil, err
	}
	for _, t := range targets {
		if len(out) == p.rings {
			break
		}
		ctx, finish := context.Background(), func() {}
		if traced {
			c := trace.NewCollector()
			var tr *trace.Trace
			ctx, tr = trace.New(ctx, c, "client")
			finish = func() { tr.Finish("done"); agg.add(only(c)) }
		}
		sr, ok, err := signRing(ctx, fw, keys, signRng, t)
		finish()
		if err != nil {
			return nil, nil, err
		}
		if ok {
			out = append(out, sr)
		}
	}
	if len(out) < p.rings {
		return nil, nil, fmt.Errorf("client: only %d of %d rings could be generated", len(out), p.rings)
	}
	for i := range out {
		out[i].sub.Fee = uint64(len(out) - i)
		if out[i].body, err = json.Marshal(out[i].sub); err != nil {
			return nil, nil, err
		}
	}
	return out, agg, nil
}

func signRing(ctx context.Context, fw *itm.Framework, keys map[chain.TokenID]*ringsig.PrivateKey, rng *rand.Rand, t chain.TokenID) (signedRing, bool, error) {
	res, err := fw.GenerateRSContext(ctx, t, spendReq)
	if err != nil {
		return signedRing{}, false, nil
	}
	if _, err := fw.CommitCtx(ctx, res.Tokens, spendReq); err != nil {
		return signedRing{}, false, nil
	}
	ring := make([]ringsig.Point, len(res.Tokens))
	signer := -1
	for i, tok := range res.Tokens {
		ring[i] = keys[tok].Public
		if tok == t {
			signer = i
		}
	}
	sig, err := ringsig.SignCtx(ctx, rng, keys[t], ring, signer, node.Message(res.Tokens))
	if err != nil {
		return signedRing{}, false, fmt.Errorf("client: sign: %w", err)
	}
	return signedRing{target: t, sub: nodesvc.SubmitRequest{
		Tokens: res.Tokens, C: spendReq.C, L: spendReq.L, Keys: ring, Signature: sig,
	}}, true, nil
}

// setupReplay builds the chain and keys, generates the round's rings, and
// opens a fresh store under dir seeded with the chain, with a miner over it.
func setupReplay(p *params, round int, dir string, traced bool) (*replayFixture, error) {
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
	clientChain, err := buildChain(p.tokens, p.counts)
	if err != nil {
		return nil, err
	}
	rings, client, err := generateRings(p, round, clientChain, keys, traced)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	st, err := store.Open(dir, storeOptions(p.lambda, reg))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := store.Seed(st.Ledger, led.View()); err != nil {
		_ = st.Close()
		return nil, err
	}
	j := &timedJournal{log: st.Log}
	st.Ledger.SetJournal(j)
	nd, err := node.New(st.Ledger, node.Config{Framework: frameworkConfig(p.lambda, reg)})
	if err != nil {
		_ = st.Close()
		return nil, fmt.Errorf("node: %w", err)
	}
	return &replayFixture{rings: rings, dir: dir, st: st, journal: j, reg: reg, node: nd, client: client}, nil
}

// replayRound is what one miner-replay round measured.
type replayRound struct {
	attempted, failed int
	elapsed           time.Duration // submitting and mining
	submit            []time.Duration
	service           map[int]time.Duration // per submission: send → reply
	mine              []time.Duration
	mined             int
	shed              int64   // requests the admission gate refused
	reopen            float64 // seconds, median of reopens
	reopenInfo        store.RecoveryInfo
	counters          map[string]int64
	appends, commits  int64
	appendDur         time.Duration
	commitDur         time.Duration
	appendBytes       int64
	anon              float64
	traces            map[int]trace.TraceJSON
	bench             []trace.TraceJSON // reopen and audit benchmark spans
}

// mineSeqBase numbers /v1/mine requests apart from submissions.
const mineSeqBase = 1 << 20

// runReplayRound submits every ring from `clients` goroutines and mines a
// block each time another p.mineEvery submissions, counted as a prefix in
// generation order, have been answered. It then closes the node and the
// store, reopens both, and audits the recovered ledger.
func runReplayRound(p *params, fx *replayFixture, traced bool) (*replayRound, error) {
	var sink *traceSink
	if traced {
		sink = newTraceSink()
	}
	srv, err := startServer(fx.node, sink)
	if err != nil {
		return nil, err
	}
	cl := newClient(srv.url)
	n := len(fx.rings)
	r := &replayRound{service: make(map[int]time.Duration)}
	bytes0 := fx.reg.Counter("store.append_bytes").Value()
	shed0 := obs.Default().Counter("http.nodesvc.rejected_busy").Value()

	var (
		mu        sync.Mutex
		answered  = make([]bool, n)
		prefix    int // rings [0, prefix) are all answered
		scheduled int // rings handed to a mine request so far
		mines     int
		failures  []error
	)
	fail := func(err error) {
		mu.Lock()
		failures = append(failures, err)
		mu.Unlock()
	}
	mine := func(seq int) {
		var out []nodesvc.MinedEntry
		body, _ := json.Marshal(nodesvc.MineRequest{MaxRings: p.mineEvery}) // a struct of one int always encodes
		start := time.Now()
		err := cl.post("/v1/mine", mineSeqBase+seq, body, &out)
		d := time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		r.attempted++
		if err != nil {
			failures = append(failures, err)
			return
		}
		r.mine = append(r.mine, d)
		r.mined += len(out)
	}

	runtime.GC()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				var resp nodesvc.SubmitResponse
				sent := time.Now()
				err := cl.post("/v1/submit", i, fx.rings[i].body, &resp)
				d := time.Since(sent)
				if err != nil {
					fail(fmt.Errorf("submit ring %d: %w", i, err))
				}
				mu.Lock()
				if err == nil {
					r.submit = append(r.submit, d)
					r.service[i] = d
				}
				answered[i] = true
				for prefix < n && answered[prefix] {
					prefix++
				}
				seq := -1
				if prefix-scheduled >= p.mineEvery {
					scheduled += p.mineEvery
					seq = mines
					mines++
				}
				mu.Unlock()
				if seq >= 0 {
					mine(seq)
				}
			}
		}()
	}
	wg.Wait()
	// Mine the tail the last full block left behind.
	for tries := 0; tries < n; tries++ {
		st, err := cl.status()
		if err != nil {
			fail(err)
			break
		}
		if st.Pending == 0 {
			break
		}
		mine(mines)
		mines++
	}
	r.elapsed = time.Since(start)
	r.shed = obs.Default().Counter("http.nodesvc.rejected_busy").Value() - shed0
	cl.close()
	srv.stop()

	r.attempted += n
	r.failed = len(failures) + (len(r.submit) - r.mined) // failed requests plus admitted rings never mined
	for i, err := range failures {
		if i < 5 {
			logf("%v", err)
		}
	}
	r.counters = counters(fx.reg, "node.mine.rings", "node.mine.dropped", "node.mine.invalid_sig")
	r.appendBytes = fx.reg.Counter("store.append_bytes").Value() - bytes0
	fx.journal.mu.Lock()
	r.appends, r.commits, r.appendDur, r.commitDur = fx.journal.appends, fx.journal.commits, fx.journal.appendDur, fx.journal.commitDur
	fx.journal.mu.Unlock()
	if traced {
		r.traces = sink.traces()
	}

	if err := reopenAndAudit(p, fx, r); err != nil {
		return nil, err
	}
	return r, nil
}

// reopenAndAudit closes the store, reopens it with a fresh miner (timed
// until the first /v1/status answers; the median of `reopens` reopens), and
// audits the recovered ledger: the same digest with nothing dropped or torn,
// exactly the generated rings in generation order, each replaying, unique
// key images, and a seeded sample of signatures re-verified with the
// reference implementation.
func reopenAndAudit(p *params, fx *replayFixture, r *replayRound) error {
	want, err := store.Digest(fx.st.Ledger.View())
	if err != nil {
		return err
	}
	st := fx.st
	var times []float64
	for k := 0; k < reopens; k++ {
		if err := st.Close(); err != nil {
			return fmt.Errorf("store close: %w", err)
		}
		ctx, finish := benchTrace("reopen")
		runtime.GC()
		start := time.Now()
		var nd *node.Node
		st, nd, err = reopen(ctx, p, fx.dir)
		if err != nil {
			return err
		}
		err = firstStatus(nd)
		times = append(times, time.Since(start).Seconds())
		r.bench = append(r.bench, finish())
		if err != nil {
			_ = st.Close()
			return err
		}
	}
	defer st.Close()
	r.reopen = median(times)
	r.reopenInfo = st.Info

	v := st.Ledger.View()
	got, err := store.Digest(v)
	if err != nil {
		return err
	}
	if got != want || st.Info.DroppedTail != 0 || st.Info.TornBytes != 0 {
		return fmt.Errorf("audit: reopened store differs (digest %s, want %s; dropped tail %d, torn bytes %d)",
			got, want, st.Info.DroppedTail, st.Info.TornBytes)
	}
	// The ledger must hold submitted rings only, in generation order: all
	// of them unless some failed, which the round counted.
	rings := v.Rings()
	if len(rings) != r.mined {
		return fmt.Errorf("audit: ledger holds %d rings, %d were mined", len(rings), r.mined)
	}
	images := make([][]byte, len(rings))
	j := 0
	for i, rec := range rings {
		for j < len(fx.rings) && !rec.Tokens.Equal(fx.rings[j].sub.Tokens) {
			j++
		}
		if j == len(fx.rings) || !rec.Tokens.Contains(fx.rings[j].target) {
			return fmt.Errorf("audit: ring %d on the ledger is out of generation order or was never submitted", i)
		}
		images[i] = fx.rings[j].sub.Signature.Image.Bytes()
		j++
	}
	if err := uniqueImages(images); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(subSeed(p.seed, streamAudit)))
	for k := 0; k < p.stockSample; k++ {
		i := rng.Intn(len(fx.rings))
		sub := fx.rings[i].sub
		if err := ringsig.StockVerify(sub.Signature, sub.Keys, node.Message(sub.Tokens)); err != nil {
			return fmt.Errorf("audit: signature of ring %d fails the reference verifier: %w", i, err)
		}
	}
	base, err := buildChain(p.tokens, p.counts)
	if err != nil {
		return err
	}
	if err := replayLedger(rings, base, p.lambda); err != nil {
		return err
	}
	actx, afinish := benchTrace("audit")
	r.anon = anonymity(actx, v)
	r.bench = append(r.bench, afinish())
	return nil
}

// reopen recovers the store and builds a miner over it, each in a
// benchmark span: "store-open" (replay from the newest snapshot) and
// "node-new" (the framework rebuilding its batches and η guards).
func reopen(ctx context.Context, p *params, dir string) (*store.Store, *node.Node, error) {
	st, err := func() (*store.Store, error) {
		sp := trace.StartChild(ctx, "store-open")
		defer sp.End()
		return store.Open(dir, storeOptions(p.lambda, obs.NewRegistry()))
	}()
	if err != nil {
		return nil, nil, fmt.Errorf("reopen: %w", err)
	}
	nd, err := func() (*node.Node, error) {
		sp := trace.StartChild(ctx, "node-new")
		defer sp.End()
		return node.New(st.Ledger, node.Config{Framework: frameworkConfig(p.lambda, obs.NewRegistry())})
	}()
	if err != nil {
		_ = st.Close()
		return nil, nil, fmt.Errorf("reopen: %w", err)
	}
	return st, nd, nil
}
