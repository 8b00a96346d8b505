package tokenmagic

// Differential golden rings: a fixed seeded ledger driven through generate
// and commit steps under every heuristic solver must produce exactly the
// rings and commit outcomes it produced when the hash below was recorded.
// Any change to candidate iteration order, tie-breaking or rng draws in the
// selection path moves the hash; a change that is meant to alter the
// selection distribution must re-record it and go through anonaudit.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
)

// goldenRingsHash is the sha256 over every case's rings and commit outcomes.
const goldenRingsHash = "239fc999e40aaab715a65ef284bff2c9a5b0873607eff42da286da21355c530b"

// goldenLedger builds a multi-block ledger of at least minTokens tokens:
// blocks of 16–24 transactions whose output counts lean on two, as in the
// paper's Monero slice, so λ=800 forms several batches.
func goldenLedger(tb testing.TB, seed int64, minTokens int) *chain.Ledger {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	outs := []int{1, 2, 2, 2, 2, 3, 4}
	l := chain.NewLedger()
	for l.NumTokens() < minTokens {
		b := l.BeginBlock()
		for n := 16 + rng.Intn(9); n > 0; n-- {
			if _, err := l.AddTx(b, outs[rng.Intn(len(outs))]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return l
}

// goldenSteps runs steps generate+commit rounds on a fresh framework over a
// fresh golden ledger and writes each round's outcome to h. Targets come
// from the first two batches' worth of tokens, so later rounds solve over
// super rings that earlier commits made, not only over fresh tokens.
func goldenSteps(t *testing.T, h io.Writer, algo Algorithm, lambda, steps int) {
	t.Helper()
	l := goldenLedger(t, 15, 2600)
	cfg := Config{
		Lambda:      lambda,
		Eta:         0.1,
		Headroom:    true,
		Algorithm:   algo,
		Randomize:   true,
		Parallelism: 2,
		Metrics:     obs.NewRegistry(),
	}
	f, err := New(l, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(lambda)*31 + int64(algo)))
	req := diversity.Requirement{C: 1, L: 3}
	fmt.Fprintf(h, "case %v λ=%d\n", algo, lambda)
	var buf [8]byte
	for i := 0; i < steps; i++ {
		target := chain.TokenID(rng.Intn(2 * lambda))
		res, err := f.GenerateRSSeeded(context.Background(), target, req, rng.Int63())
		if err != nil {
			fmt.Fprintf(h, "%d gen %v\n", target, err)
			continue
		}
		fmt.Fprintf(h, "%d ring %d modules %d:", target, res.Size(), res.Modules)
		for _, tok := range res.Tokens {
			binary.LittleEndian.PutUint64(buf[:], uint64(tok))
			h.Write(buf[:])
		}
		id, err := f.Commit(res.Tokens, req)
		fmt.Fprintf(h, " commit %d %v\n", id, err)
	}
}

func TestGoldenRings(t *testing.T) {
	h := sha256.New()
	goldenSteps(t, h, Progressive, 800, 10)
	for _, algo := range []Algorithm{Progressive, Game, Smallest, RandomPick} {
		goldenSteps(t, h, algo, 100, 40)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRingsHash {
		t.Fatalf("golden rings hash %s, want %s", got, goldenRingsHash)
	}
}
