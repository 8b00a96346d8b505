package main

import (
	"fmt"
	"math/rand"
	"sort"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/workload"
)

// chainSeed fixes the chain: it is the benchmark's data set, the same for
// every --seed. Which transactions of the Figure-3 histogram land in which
// batch moves ring sizes, and with them every timing, by up to a third from
// one chain to the next, so a chain drawn per seed would bury a regression
// in the spread between seeds.
const chainSeed = 1

// Seed streams: everything else the benchmark generates is derived from
// --seed, each on its own stream so that changing how much of one is drawn
// never shifts another.
const (
	streamKeys int64 = iota + 1
	streamTargets
	streamSampling
	streamSigning
	streamAudit
)

func subSeed(seed, stream int64) int64 { return seed*1_000_003 + stream }

// roundSeed is the seed of one round's draws from a stream.
func roundSeed(seed, stream int64, round int) int64 { return subSeed(seed, stream) ^ int64(round)<<32 }

// figure3Counts lists the per-transaction output counts of the paper's
// Monero slice (Figure 3: mostly two outputs, a thin tail of larger ones),
// one entry per transaction, so a uniform draw from it follows that
// histogram.
func figure3Counts() ([]int, error) {
	d, err := workload.RealMonero(0)
	if err != nil {
		return nil, fmt.Errorf("figure-3 histogram: %w", err)
	}
	hist := d.OutputHistogram()
	ks := make([]int, 0, len(hist))
	for k := range hist {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	var counts []int
	for _, k := range ks {
		for i := 0; i < hist[k]; i++ {
			counts = append(counts, k)
		}
	}
	return counts, nil
}

// buildChain generates the benchmark's base chain: blocks of 16–24
// transactions whose output counts are drawn from the Figure-3 histogram,
// until the chain holds exactly n tokens. It carries no rings. The program's
// own data sets put every token in one block, which forms a single batch at
// any λ; a multi-block chain is what makes λ a real parameter.
func buildChain(n int, counts []int) (*chain.Ledger, error) {
	rng := rand.New(rand.NewSource(chainSeed))
	led := chain.NewLedger()
	for led.NumTokens() < n {
		b := led.BeginBlock()
		txs := 16 + rng.Intn(9)
		for i := 0; i < txs && led.NumTokens() < n; i++ {
			k := counts[rng.Intn(len(counts))]
			if rem := n - led.NumTokens(); k > rem {
				k = rem
			}
			if _, err := led.AddTx(b, k); err != nil {
				return nil, fmt.Errorf("build chain: %w", err)
			}
		}
	}
	return led, nil
}

// checkBatches fails unless the chain forms about population/λ batches.
// Every closed batch holds at least λ and fewer than λ plus one block's
// tokens, so the count must lie in [n/(λ+maxBlock), ⌈n/λ⌉]; a single-block
// chain forms one batch and can never pass as a λ measurement.
func checkBatches(led *chain.Ledger, lambda int) (*chain.BatchList, error) {
	bl, err := chain.BuildBatches(led, lambda)
	if err != nil {
		return nil, err
	}
	v := led.View()
	n, maxBlock := v.NumTokens(), 0
	for b := 0; b < v.NumBlocks(); b++ {
		if k := len(v.TokensInBlocks(chain.BlockID(b), chain.BlockID(b))); k > maxBlock {
			maxBlock = k
		}
	}
	lo, hi := n/(lambda+maxBlock), (n+lambda-1)/lambda
	if got := bl.Len(); got < 2 || got < lo || got > hi {
		return nil, fmt.Errorf("batch check: %d tokens at λ=%d form %d batches, want %d–%d (and at least 2)", n, lambda, got, lo, hi)
	}
	return bl, nil
}

// drawTargets returns every token of the chain in a seeded order, drawn
// without replacement so no spend repeats a key image. The first k are
// apportioned over the batches by batch size (largest remainder) and then
// shuffled: every batch carries the same share of the ring history, which
// would otherwise swing ring sizes by a sixth between seeds, while
// consecutive targets still fall in the same batch as often as chance has
// it, so concurrent spends race same-batch commits. The tokens after the
// first k follow in seeded order, for callers that skip some. Each round of
// a run draws its own targets, so a run averages over several draws rather
// than repeating one.
func drawTargets(seed int64, round int, led *chain.Ledger, lambda, k int) ([]chain.TokenID, error) {
	bl, err := chain.BuildBatches(led, lambda)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(roundSeed(seed, streamTargets, round)))
	n := led.NumTokens()
	batches := make([]chain.TokenSet, bl.Len())
	quota := make([]int, bl.Len())
	left := k
	for i := range batches {
		b, err := bl.Batch(i)
		if err != nil {
			return nil, err
		}
		batches[i] = b.Tokens
		quota[i] = k * len(b.Tokens) / n
		left -= quota[i]
	}
	byRemainder := make([]int, len(batches))
	for i := range byRemainder {
		byRemainder[i] = i
	}
	sort.SliceStable(byRemainder, func(a, b int) bool {
		return k*len(batches[byRemainder[a]])%n > k*len(batches[byRemainder[b]])%n
	})
	for _, i := range byRemainder[:left] {
		quota[i]++
	}
	var head, tail []chain.TokenID
	for i, toks := range batches {
		for j, p := range rng.Perm(len(toks)) {
			if j < quota[i] {
				head = append(head, toks[p])
			} else {
				tail = append(tail, toks[p])
			}
		}
	}
	rng.Shuffle(len(head), func(a, b int) { head[a], head[b] = head[b], head[a] })
	rng.Shuffle(len(tail), func(a, b int) { tail[a], tail[b] = tail[b], tail[a] })
	return append(head, tail...), nil
}
