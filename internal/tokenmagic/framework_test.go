package tokenmagic

import (
	"errors"
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
)

// buildLedger creates a ledger with nTx transactions of outsPerTx outputs
// each, all in one block, so one batch covers everything under a large λ.
func buildLedger(t *testing.T, nTx, outsPerTx int) *chain.Ledger {
	t.Helper()
	l := chain.NewLedger()
	b := l.BeginBlock()
	for i := 0; i < nTx; i++ {
		if _, err := l.AddTx(b, outsPerTx); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestFrameworkGenerateCommitRoundTrip(t *testing.T) {
	l := buildLedger(t, 10, 2) // 20 tokens over 10 HTs
	cfg := Config{Lambda: 100, Eta: 0.1, Headroom: true, Algorithm: Progressive}
	f, err := New(l, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 3}
	id, res, err := f.GenerateAndCommit(0, req)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("RSID = %v", id)
	}
	if !res.Tokens.Contains(0) {
		t.Fatalf("ring %v must contain the consuming token", res.Tokens)
	}
	// Headroom: the committed ring satisfies (c, ℓ+1) on its own histogram.
	if !diversity.SatisfiesTokens(res.Tokens, l.OriginFunc(), req.WithHeadroom()) {
		t.Fatal("committed ring must satisfy the headroom requirement")
	}
	if l.NumRS() != 1 {
		t.Fatal("ring must be on the ledger")
	}
}

func TestFrameworkAllAlgorithms(t *testing.T) {
	req := diversity.Requirement{C: 1, L: 2}
	for _, algo := range []Algorithm{Progressive, Game, Smallest, RandomPick, BFS} {
		l := buildLedger(t, 6, 2)
		cfg := Config{Lambda: 100, Eta: 0, Headroom: algo != BFS, Algorithm: algo}
		f, err := New(l, cfg, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		res, err := f.GenerateRS(3, req)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !res.Tokens.Contains(3) {
			t.Fatalf("%v: ring %v missing target", algo, res.Tokens)
		}
		if !diversity.SatisfiesTokens(res.Tokens, l.OriginFunc(), req) {
			t.Fatalf("%v: ring %v fails requirement", algo, res.Tokens)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		Progressive: "TM_P", Game: "TM_G", Smallest: "TM_S",
		RandomPick: "TM_R", BFS: "TM_B", Algorithm(99): "Algorithm(99)",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestVerifyRSConfigViolations(t *testing.T) {
	l := buildLedger(t, 8, 2)
	f, err := New(l, Config{Lambda: 100, Headroom: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 2, L: 2}

	// Commit a first ring {0, 2, 4}.
	first := chain.NewTokenSet(0, 2, 4)
	if _, err := f.Commit(first, req); err != nil {
		t.Fatal(err)
	}

	// Partial overlap with the existing ring: configuration violation.
	overlap := chain.NewTokenSet(0, 6, 8)
	if err := f.VerifyRS(overlap, req); !errors.Is(err, ErrConfig) {
		t.Fatalf("overlap err = %v, want ErrConfig", err)
	}

	// Superset is allowed.
	super := chain.NewTokenSet(0, 2, 4, 6, 8)
	if err := f.VerifyRS(super, req); err != nil {
		t.Fatalf("superset err = %v", err)
	}

	// Disjoint is allowed.
	disjoint := chain.NewTokenSet(6, 8, 10)
	if err := f.VerifyRS(disjoint, req); err != nil {
		t.Fatalf("disjoint err = %v", err)
	}

	// Empty ring.
	if err := f.VerifyRS(nil, req); err == nil {
		t.Fatal("empty ring must fail")
	}
	// Invalid requirement.
	if err := f.VerifyRS(disjoint, diversity.Requirement{C: -1, L: 1}); err == nil {
		t.Fatal("invalid requirement must fail")
	}
}

func TestVerifyRSDiversityViolation(t *testing.T) {
	// Two HTs with 3 outputs each: ring {0,1,2} is homogeneous (all h0).
	l := buildLedger(t, 2, 3)
	f, err := New(l, Config{Lambda: 100, Headroom: false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 2}
	if err := f.VerifyRS(chain.NewTokenSet(0, 1, 2), req); !errors.Is(err, ErrDiversity) {
		t.Fatalf("homogeneous ring err = %v, want ErrDiversity", err)
	}
}

func TestVerifyRSBatchSpanViolation(t *testing.T) {
	l := chain.NewLedger()
	b0 := l.BeginBlock()
	if _, err := l.AddTx(b0, 3); err != nil {
		t.Fatal(err)
	}
	b1 := l.BeginBlock()
	if _, err := l.AddTx(b1, 3); err != nil {
		t.Fatal(err)
	}
	f, err := New(l, Config{Lambda: 3, Headroom: false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Batches().Len() < 2 {
		t.Fatal("test requires ≥ 2 batches")
	}
	// Tokens 0 (batch 0) and 3 (batch 1).
	err = f.VerifyRS(chain.NewTokenSet(0, 3), diversity.Requirement{C: 2, L: 2})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("cross-batch ring err = %v, want ErrConfig", err)
	}
}

func TestEtaGuardBlocksStarvation(t *testing.T) {
	// 6 tokens, 6 distinct HTs, η=0.5, λ=6. Build the superset chain
	// A={0,1}, B={0,1,2}, then propose C={0,1,2}: three rings over three
	// tokens prove all of {0,1,2} consumed (μ=3), exceeding
	// max(0, 3 − 0.5·(6−3)) = 1.5 — while C passes every diversity and
	// DTRS check (its ψ sets span two distinct HTs under (2,2)).
	l := buildLedger(t, 6, 1)
	f, err := New(l, Config{Lambda: 6, Eta: 0.5, Headroom: false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 2, L: 2}
	if _, err := f.Commit(chain.NewTokenSet(0, 1), req); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Commit(chain.NewTokenSet(0, 1, 2), req); err != nil {
		t.Fatal(err)
	}
	if err := f.VerifyRS(chain.NewTokenSet(0, 1, 2), req); !errors.Is(err, ErrLiveness) {
		t.Fatalf("err = %v, want ErrLiveness", err)
	}
	// A disjoint fresh ring is fine: i=3, μ=0 ≤ max(0, 3−0.5·3)=1.5.
	if err := f.VerifyRS(chain.NewTokenSet(3, 4), req); err != nil {
		t.Fatalf("fresh ring err = %v", err)
	}
	// η=0 disables the guard: the same starving ring is admitted.
	l2 := buildLedger(t, 6, 1)
	f2, err := New(l2, Config{Lambda: 6, Eta: 0, Headroom: false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Commit(chain.NewTokenSet(0, 1), req); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Commit(chain.NewTokenSet(0, 1, 2), req); err != nil {
		t.Fatal(err)
	}
	if err := f2.VerifyRS(chain.NewTokenSet(0, 1, 2), req); err != nil {
		t.Fatalf("η=0 should admit: %v", err)
	}
}

func TestRandomizedCandidateSampling(t *testing.T) {
	l := buildLedger(t, 8, 2)
	cfg := Config{Lambda: 100, Headroom: true, Algorithm: Progressive, Randomize: true}
	f, err := New(l, cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	req := diversity.Requirement{C: 1, L: 2}
	res, err := f.GenerateRS(5, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tokens.Contains(5) {
		t.Fatalf("sampled ring %v missing target", res.Tokens)
	}
	// Without an rng, New installs a crypto-seeded default and sampling
	// still works (the seed is just no longer reproducible).
	f2, err := New(l, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := f2.GenerateRS(5, req)
	if err != nil {
		t.Fatalf("sampling with the default crypto-seeded rng: %v", err)
	}
	if !res2.Tokens.Contains(5) {
		t.Fatalf("sampled ring %v missing target", res2.Tokens)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	l := buildLedger(t, 2, 1)
	if _, err := New(l, Config{Lambda: 0}, nil); err == nil {
		t.Fatal("λ=0 must error")
	}
	if _, err := New(l, Config{Lambda: 5, Eta: 2}, nil); err == nil {
		t.Fatal("η>1 must error")
	}
}

func TestFrameworkReplaysExistingRings(t *testing.T) {
	l := buildLedger(t, 6, 1)
	if _, err := l.AppendRS(chain.NewTokenSet(0, 1), 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRS(chain.NewTokenSet(0, 1), 2, 2); err != nil {
		t.Fatal(err)
	}
	f, err := New(l, Config{Lambda: 6, Eta: 0.5, Headroom: false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The twin rings already on the chain count toward the guard: μ=2, i=2.
	// Next ring {2,3}: i=3, μ=2 → 1 ≥ 0.5·(6−3) = 1.5? No → reject.
	err = f.VerifyRS(chain.NewTokenSet(2, 3), diversity.Requirement{C: 2, L: 2})
	if !errors.Is(err, ErrLiveness) {
		t.Fatalf("err = %v, want ErrLiveness (pre-existing rings)", err)
	}
}
