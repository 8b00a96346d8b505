package tokenmagic

import (
	"errors"
	"math/rand"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/rsgraph"
)

// probeStarves is the η-guard reference, computed independently of the
// framework: partition the live chain into batches, take every ring whose
// first token falls in the candidate's batch, append the candidate, and
// count μ with rsgraph's per-edge matching probes. It reports whether μ
// exceeds the Section-4 bound max(0, i − η·(|T| − i)).
func probeStarves(t *testing.T, l *chain.Ledger, lambda int, eta float64, cand chain.TokenSet) bool {
	t.Helper()
	v := l.View()
	batches, err := chain.BuildBatchesView(v, lambda)
	if err != nil {
		t.Fatal(err)
	}
	b, err := batches.BatchOf(cand[0])
	if err != nil {
		t.Fatal(err)
	}
	var rings []rsgraph.Ring
	for _, r := range v.Rings() {
		if rb, err := batches.BatchOf(r.Tokens[0]); err == nil && rb.Index == b.Index {
			rings = append(rings, rsgraph.Ring{ID: r.ID, Tokens: r.Tokens})
		}
	}
	rings = append(rings, rsgraph.Ring{ID: chain.RSID(v.NumRS()), Tokens: cand})
	i := len(rings)
	mu := len(rsgraph.NewInstance(rings).ProvablyConsumed())
	size := len(b.Tokens)
	if size < lambda {
		size = lambda + size - 1
	}
	bound := float64(i) - eta*float64(size-i)
	if bound < 0 {
		bound = 0
	}
	return float64(mu) > bound
}

// TestEtaGuardMatchesProbeReference drives a seeded framework with η > 0
// over a multi-batch chain and checks every verdict against the probe
// reference: VerifyRS returns ErrLiveness exactly when the probe-computed μ
// over the batch's rings plus the candidate exceeds the bound. A twin
// framework with η = 0 over the same ledger supplies the verdict of every
// other Step-3 check, so candidates rejected for configuration or
// diversity must be rejected identically. The run grows the chain and
// calls RefreshBatches midway, and appends foreign rings — one spanning
// two batches — straight to the ledger.
func TestEtaGuardMatchesProbeReference(t *testing.T) {
	const lambda, eta = 12, 0.3
	l := chain.NewLedger()
	addBlock := func() {
		b := l.BeginBlock()
		for i := 0; i < 3; i++ {
			if _, err := l.AddTx(b, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		addBlock()
	}
	cfg := Config{Lambda: lambda, Eta: eta, Algorithm: Smallest}
	f, err := New(l, cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Eta = 0
	ref, err := New(l, cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(12))
	req := diversity.Requirement{C: 10, L: 1} // a singleton passes this
	var admits, starved, refreshed int
	for step := 0; step < 160; step++ {
		switch step {
		case 40:
			// A foreign ring spanning two batches lands straight on the
			// chain: it counts toward the batch of its first token only.
			if _, err := l.AppendRS(chain.NewTokenSet(10, 13), 1, 1); err != nil {
				t.Fatal(err)
			}
		case 80, 120:
			addBlock()
			addBlock()
			if err := f.RefreshBatches(); err != nil {
				t.Fatal(err)
			}
			refreshed++
		}

		target := chain.TokenID(rng.Intn(l.NumTokens()))
		var cand chain.TokenSet
		switch rng.Intn(3) {
		case 0:
			cand = chain.NewTokenSet(target)
		case 1:
			universe, err := f.Batches().Universe(target)
			if err != nil {
				t.Fatal(err)
			}
			cand = chain.NewTokenSet(target, universe[rng.Intn(len(universe))])
		default:
			res, err := f.GenerateRS(target, req)
			if err != nil {
				continue
			}
			cand = res.Tokens
		}

		want := ref.VerifyRS(cand, req)
		if want == nil && probeStarves(t, l, lambda, eta, cand) {
			want = ErrLiveness
		}
		got := f.VerifyRS(cand, req)
		if errors.Is(got, ErrLiveness) != errors.Is(want, ErrLiveness) || (got == nil) != (want == nil) {
			t.Fatalf("step %d ring %v: VerifyRS = %v, reference = %v", step, cand, got, want)
		}
		switch {
		case got == nil:
			admits++
			if _, err := f.Commit(cand, req); err != nil {
				t.Fatalf("step %d: committing an admitted ring: %v", step, err)
			}
		case errors.Is(got, ErrLiveness):
			starved++
		}
	}
	if admits == 0 || starved == 0 || refreshed == 0 {
		t.Fatalf("run must admit, starve and refresh: admits=%d starved=%d refreshes=%d", admits, starved, refreshed)
	}
	t.Logf("admits=%d liveness rejects=%d", admits, starved)
}
