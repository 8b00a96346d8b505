package tokenmagic

import (
	"context"
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
)

// spendAllocCeiling bounds the heap allocations of one λ=800 spend (about
// 800 candidate solves) at about twice the 17.5k the sample stage makes with
// the module list built once per batch state. Rebuilding the modules and
// their HT footprints per candidate solve made about 2.77 million.
const spendAllocCeiling = 35000

// TestSpendAllocCeiling gates the sample stage on allocation count, which,
// unlike wall time, is the same on every machine. The batch carries a few
// committed rings so the module list holds super rings as well as fresh
// tokens; the measured spends reuse the list the first one built.
func TestSpendAllocCeiling(t *testing.T) {
	l := goldenLedger(t, 15, 2600)
	cfg := Config{
		Lambda:      800,
		Eta:         0.1,
		Headroom:    true,
		Algorithm:   Progressive,
		Randomize:   true,
		Parallelism: 1,
		Metrics:     obs.NewRegistry(),
	}
	f, err := New(l, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Batches().Len() < 3 {
		t.Fatalf("ledger forms %d batches at λ=800, want several", f.Batches().Len())
	}
	req := diversity.Requirement{C: 1, L: 3}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5; i++ {
		res, err := f.GenerateRSSeeded(ctx, chain.TokenID(rng.Intn(800)), req, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Commit(res.Tokens, req); err != nil {
			t.Fatal(err)
		}
	}
	seed := int64(0)
	allocs := testing.AllocsPerRun(5, func() {
		seed++
		if _, err := f.GenerateRSSeeded(ctx, 7, req, seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > spendAllocCeiling {
		t.Fatalf("λ=800 spend made %.0f allocations, ceiling %d", allocs, spendAllocCeiling)
	}
}
