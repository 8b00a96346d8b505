package tokenmagic

import (
	"errors"
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
)

// catchupLedger builds a one-block chain of n 2-output txs.
func catchupLedger(t *testing.T, txs int) *chain.Ledger {
	t.Helper()
	l := chain.NewLedger()
	b := l.BeginBlock()
	for i := 0; i < txs; i++ {
		if _, err := l.AddTx(b, 2); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestReadersCatchUpWithExternalAppends pins the semantics that make one
// ledger shareable between a framework and other writers (a second
// framework, a miner, a recovered store): when the ledger moves outside the
// framework, the next read-side call resyncs instead of answering from the
// stale pinned epoch. A stale VerifyRS would admit rings that partially
// overlap the foreign ring; a stale GenerateRS would produce them.
func TestReadersCatchUpWithExternalAppends(t *testing.T) {
	led := catchupLedger(t, 8)
	f, err := New(led, Config{
		Lambda: led.NumTokens(), Eta: 0, Headroom: true,
		Algorithm: Progressive, Metrics: obs.NewRegistry(),
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}

	// Foreign append: a ring the framework did not commit.
	foreign := chain.NewTokenSet(0, 1, 2, 3)
	if _, err := led.AppendRS(foreign, 1, 3); err != nil {
		t.Fatal(err)
	}

	// A ring that contains part of the foreign ring but not all of it
	// violates the practical configuration; only a caught-up verifier can
	// see that.
	overlap := chain.NewTokenSet(0, 4, 5, 6)
	if err := f.VerifyRS(overlap, diversity.Requirement{C: 1, L: 3}); !errors.Is(err, ErrConfig) {
		t.Fatalf("VerifyRS after external append: got %v, want ErrConfig", err)
	}

	// Generation must select against the live chain too: any ring it emits
	// has to contain-or-avoid the foreign ring, so committing it straight
	// away succeeds.
	res, err := f.GenerateRS(chain.TokenID(5), diversity.Requirement{C: 1, L: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !foreign.SubsetOf(res.Tokens) && !foreign.Disjoint(res.Tokens) {
		t.Fatalf("generated ring %v partially overlaps foreign ring %v", res.Tokens, foreign)
	}
	if _, err := f.Commit(res.Tokens, diversity.Requirement{C: 1, L: 3}); err != nil {
		t.Fatalf("committing a freshly generated ring failed: %v", err)
	}
}

// TestGuardsCountForeignRings pins the liveness accounting side of the same
// contract: the η guard reads the batch's rings from the chain view at
// verify time, so rings appended outside the framework weigh into the
// μ ≤ i − η(|T|−i) bound exactly as a Step-3 miner would count them. (The pre-epoch framework tracked only its
// own commits, so a permissive chain's zero-mixin singletons were invisible
// to the guard and it admitted rings past the paper's bound.)
func TestGuardsCountForeignRings(t *testing.T) {
	led := catchupLedger(t, 8)
	f, err := New(led, Config{
		Lambda: led.NumTokens(), Eta: 0.5, Headroom: true,
		Algorithm: Progressive, Metrics: obs.NewRegistry(),
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// A zero-mixin singleton lands directly on the chain: token 0 is now
	// provably consumed, so the batch's μ is already 1.
	if _, err := led.AppendRS(chain.NewTokenSet(0), 10, 1); err != nil {
		t.Fatal(err)
	}
	// A diverse ring containing the consumed token keeps μ = 1 with i = 2:
	// bound = 2 − 0.5·(16−2) = −5 → clamped 0 < μ. An honest miner rejects;
	// a guard blind to the singleton would admit (it would see i = 1, μ = 0).
	ring := chain.NewTokenSet(0, 2, 4, 6, 8)
	err = f.VerifyRS(ring, diversity.Requirement{C: 1, L: 3})
	if !errors.Is(err, ErrLiveness) {
		t.Fatalf("VerifyRS over a chain with a foreign singleton: got %v, want ErrLiveness", err)
	}
}
