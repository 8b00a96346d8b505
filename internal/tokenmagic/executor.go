package tokenmagic

// The solve executor behind Algorithm 1's candidate sampling.
//
// GenerateRS sweeps one DA-MS solve per batch token; the solves are
// independent, so they fan out over a bounded worker pool
// (Config.Parallelism) in which the calling goroutine is worker 0. Three
// properties make the fan-out safe to rely on:
//
//  1. Determinism. Every request owns a 64-bit seed; the rng stream each
//     candidate solve consumes (only TM_R draws) and the stream behind the
//     final uniform pick are derived from that seed with a SplitMix64-style
//     split, keyed by candidate index. No stream is shared across
//     goroutines, so the scheduler cannot influence any draw and a request
//     replays byte-identically at every worker count — the contract the
//     property and fuzz suites (prop_test.go, fuzz_test.go) enforce.
//  2. Ordered merge. Results are gathered by candidate index, so the merged
//     candidate list — and therefore the uniform pick — is the same at every
//     worker count, one worker included.
//  3. Cancellation. Workers solve under a context; when Config.StopAfter
//     satisfying candidates are decided (in index order), or when the
//     caller's context dies, in-flight sibling solves are cancelled and
//     abandon at their next loop boundary.

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs/trace"
	"tokenmagic/internal/selector"
)

// Reserved stream tags for DeriveSeed. Candidate solves use their index as
// the stream, so the reserved tags sit at the top of the uint64 space where
// no batch can reach them.
const (
	// pickStream derives the rng behind Algorithm 1's final uniform pick.
	pickStream = ^uint64(0)
	// soloStream derives the rng for the single-solve (Randomize off) path.
	soloStream = ^uint64(1)
	// ReplayStreamBase is where callers replaying whole request batches
	// (internal/sim) start their per-request streams: request i uses
	// DeriveSeed(batchSeed, ReplayStreamBase+i), far away from both the
	// candidate-index streams and the reserved tags.
	ReplayStreamBase = uint64(1) << 32
)

// DeriveSeed splits one request seed into the seed of an independent,
// deterministic sub-stream. The mix is the SplitMix64 finaliser over the
// seed offset by the stream's multiple of the golden-ratio increment: the
// standard recipe for statistically independent fixed-seed streams, and a
// pure function, so replaying a request re-derives the identical streams no
// matter how many workers race over the candidates.
//
//tmlint:hotpath
func DeriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// streamRand materialises a derived sub-stream as a *rand.Rand. This is the
// only construction site for the per-candidate generators; seed quality is
// decided where the request seed comes from (the injected rng, crypto-seeded
// by default via NewSamplingRand).
func streamRand(seed int64, stream uint64) *rand.Rand {
	//lint:ignore cryptorand derived per-candidate stream: the request seed is drawn from the injected rng, whose construction site (NewSamplingRand / caller) decides seed quality
	return rand.New(rand.NewSource(DeriveSeed(seed, stream)))
}

// parallelism resolves Config.Parallelism: 0 means one worker per available
// CPU, anything else is taken as given.
func (f *Framework) parallelism() int {
	if f.cfg.Parallelism > 0 {
		return f.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Candidate slot states. A slot is decided once its solve finished (or was
// skipped); the prefix pointer below only advances over decided slots, which
// is what makes StopAfter deterministic under arbitrary completion order.
const (
	candPending uint8 = iota
	candUnsat         // solve failed, was cancelled, or ring misses the target
	candSat           // eligible candidate containing the target
)

// solveCandidate runs Algorithm 1 lines 3–5 for one batch token inside a
// "candidate" span of the request's trace: build the modular problem, solve
// it (TM_R gets its derived stream), and keep the result only when it
// contains the consuming token. The span records which worker ran it and
// the ring size it found; with no trace in ctx it is a no-op.
func (f *Framework) solveCandidate(ctx context.Context, e *fwEpoch, worker int, tok, target chain.TokenID, req diversity.Requirement, seed int64, idx int) (selector.Result, bool) {
	ctx, sp := trace.StartSpan(ctx, "candidate")
	defer sp.End()
	sp.AnnotateInt("worker", int64(worker))
	p, s, err := f.problemFor(e, tok, req)
	if err != nil {
		return selector.Result{}, false
	}
	var rng *rand.Rand
	if f.cfg.Algorithm == RandomPick {
		rng = streamRand(seed, uint64(idx))
	}
	res, err := f.solve(ctx, e, p, s, tok, req, rng)
	if err != nil || !res.Tokens.Contains(target) {
		return selector.Result{}, false
	}
	sp.AnnotateInt("ring_size", int64(res.Size()))
	return res, true
}

// sampleCandidates runs Algorithm 1 lines 2–6 inside a "sample" span: one
// solve per batch token, keeping the candidates that contain the consuming
// token, merged in batch token order. The calling goroutine is worker 0 and
// the pool adds workers-1 goroutines, so one worker starts none; the result
// is byte-identical for the same seed at every worker count. A non-nil
// error is only ever the caller's context failing.
func (f *Framework) sampleCandidates(ctx context.Context, e *fwEpoch, universe chain.TokenSet, target chain.TokenID, req diversity.Requirement, seed int64) ([]selector.Result, error) {
	// cancel() fires either when the caller's context dies or when the
	// decided prefix proves the first StopAfter satisfying candidates are in
	// hand; cancelled workers leave their slot pending, which is fine — a
	// pending slot can only sit beyond the prefix that triggered the stop,
	// and the gather below never reads past it. The span context wraps the
	// cancel context, not the other way round, so each candidate span finds
	// its trace without a context-chain lookup.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cctx, sp := trace.StartSpan(cctx, "sample")
	defer sp.End()
	// The seed is per-request context, kept at trace level so the span's
	// fixed annotation slots stay within budget.
	trace.FromContext(cctx).AnnotateInt("seed", seed)
	sp.AnnotateInt("universe", int64(len(universe)))
	n := len(universe)
	workers := min(f.parallelism(), n)
	results := make([]selector.Result, n)
	states := make([]uint8, n)
	var (
		mu      sync.Mutex
		decided int // slots [0, decided) are all non-pending
		sat     int // satisfying slots within [0, decided)
	)
	finish := func(i int, res selector.Result, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if ok {
			results[i], states[i] = res, candSat
		} else {
			states[i] = candUnsat
		}
		for decided < n && states[decided] != candPending {
			if states[decided] == candSat {
				sat++
				if f.cfg.StopAfter > 0 && sat >= f.cfg.StopAfter {
					decided++
					cancel() // first StopAfter candidates decided: stop siblings
					return
				}
			}
			decided++
		}
	}
	var next atomic.Int64
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || cctx.Err() != nil {
				return
			}
			res, ok := f.solveCandidate(cctx, e, w, universe[i], target, req, seed, i)
			finish(i, res, ok)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	var candidates []selector.Result
	err := ctx.Err() // the caller's context died, not a StopAfter stop
	if err == nil {
		candidates = gatherCandidates(results, states, f.cfg.StopAfter)
	}
	sp.AnnotateInt("candidates", int64(len(candidates)))
	return candidates, err
}

// gatherCandidates merges the decided slots in candidate order, truncating
// at the StopAfter budget so every worker count agrees even when a fast
// sibling decided extra slots before cancellation landed.
func gatherCandidates(results []selector.Result, states []uint8, stopAfter int) []selector.Result {
	var out []selector.Result
	for i, s := range states {
		if s != candSat {
			continue
		}
		out = append(out, results[i])
		if stopAfter > 0 && len(out) >= stopAfter {
			break
		}
	}
	return out
}
