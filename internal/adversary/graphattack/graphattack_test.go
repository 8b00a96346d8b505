package graphattack

import (
	"math/rand"
	"reflect"
	"testing"

	"tokenmagic/internal/adversary"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/rsgraph"
)

// origin assigns two tokens per historical transaction — enough structure
// for homogeneity checks without building a full ledger.
func origin(t chain.TokenID) chain.TxID { return chain.TxID(int(t) / 2) }

// randomRecords builds a random ring set over nTokens tokens.
func randomRecords(rng *rand.Rand, nRings, nTokens, maxSize int) []chain.RingRecord {
	out := make([]chain.RingRecord, nRings)
	for i := range out {
		size := 1 + rng.Intn(maxSize)
		ids := make([]chain.TokenID, size)
		for j := range ids {
			ids[j] = chain.TokenID(rng.Intn(nTokens))
		}
		out[i] = chain.RingRecord{ID: chain.RSID(i), Tokens: chain.NewTokenSet(ids...), Pos: i}
	}
	return out
}

// probeReference computes the exact chain-reaction closure with rsgraph's
// per-edge matching probes on the same pinned instance DM decomposes: each
// ring's surviving token set, the provably-consumed set, and whether the
// instance has no token-RS combination at all. On such a degenerate
// instance the contract is the untouched pinned sets with nothing proven.
func probeReference(rings []chain.RingRecord, si adversary.SideInfo) (sets []chain.TokenSet, consumed chain.TokenSet, degenerate bool) {
	in := rsgraph.NewInstance(adversary.Pin(rings, si))
	if !in.HasAssignment() {
		sets = make([]chain.TokenSet, len(in.Rings))
		for i, r := range in.Rings {
			sets[i] = r.Tokens
		}
		return sets, nil, true
	}
	return in.FeasibleSpent(), in.ProvablyConsumed(), false
}

// checkDMAgainstProbes fails unless the DM report equals the probe
// reference ring for ring, on the consumed closure, on the summary metrics
// and on degeneracy.
func checkDMAgainstProbes(t *testing.T, rings []chain.RingRecord, si adversary.SideInfo, dm Report) {
	t.Helper()
	sets, consumed, degenerate := probeReference(rings, si)
	if dm.Degenerate != degenerate {
		t.Fatalf("DM degenerate=%v, probes say %v", dm.Degenerate, degenerate)
	}
	for i := range rings {
		if !dm.Observations[i].Remaining.Equal(sets[i]) {
			t.Fatalf("ring %d: DM %v != probes %v", i, dm.Observations[i].Remaining, sets[i])
		}
	}
	if !dm.Consumed.Equal(consumed) {
		t.Fatalf("DM consumed %v != probes %v", dm.Consumed, consumed)
	}
	want := adversary.Summarise(adversary.Analysis{Observations: observations(rings, sets, origin), Consumed: consumed})
	if !reflect.DeepEqual(dm.Metrics, want) {
		t.Fatalf("DM metrics %+v != probes %+v", dm.Metrics, want)
	}
}

// TestDMDifferential is the differential property test: for random ledgers the
// DM-derived traced set must be a superset of the Cascade traced set and
// identical to the exact closure of rsgraph's per-edge matching probes —
// observation for observation, token for token. adversary.ChainReaction
// reads the same decomposition, so it must agree with DM exactly.
func TestDMDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		rings := randomRecords(rng, 1+rng.Intn(10), 1+rng.Intn(14), 4)

		var si adversary.SideInfo
		if trial%3 == 0 && len(rings) > 1 {
			si = adversary.SideInfo{rings[0].ID: rings[0].Tokens[0]}
		}

		dm := DM(rings, si, origin)
		cascade := adversary.Cascade(rings, si, origin)

		// DM ≡ the probe closure, per ring, on the consumed closure and on
		// the metrics.
		checkDMAgainstProbes(t, rings, si, dm)
		if got := adversary.ChainReaction(rings, si, origin); !reflect.DeepEqual(got.Observations, dm.Observations) ||
			!got.Consumed.Equal(dm.Consumed) {
			t.Fatalf("trial %d: ChainReaction %+v != DM %+v", trial, got, dm)
		}

		// Cascade never eliminates more than DM: per-ring cascade sets are
		// supersets, so cascade traced ⊆ DM traced and cascade consumed ⊆
		// DM consumed. Only meaningful on feasible instances — on degenerate
		// ones DM reports untouched sets by contract while the greedy cascade
		// keeps eliminating from its contradictory view.
		if dm.Degenerate {
			continue
		}
		for i := range rings {
			if !dm.Observations[i].Remaining.SubsetOf(cascade.Observations[i].Remaining) {
				t.Fatalf("trial %d ring %d: cascade %v eliminated more than DM %v",
					trial, i, cascade.Observations[i].Remaining, dm.Observations[i].Remaining)
			}
			if cascade.Observations[i].Traced && !dm.Observations[i].Traced {
				t.Fatalf("trial %d ring %d: cascade traced but DM did not", trial, i)
			}
		}
		if !cascade.Consumed.SubsetOf(dm.Consumed) {
			t.Fatalf("trial %d: cascade consumed %v ⊄ DM consumed %v",
				trial, cascade.Consumed, dm.Consumed)
		}
	}
}

func TestForcedClosureCascadesThroughCycle(t *testing.T) {
	// Two rings over the same two tokens: unconditionally ambiguous, but a
	// single revealed pair traces the other ring. The forced-closure attack
	// must surface exactly that worst case.
	rings := []chain.RingRecord{
		{ID: 0, Tokens: chain.NewTokenSet(0, 1), Pos: 0},
		{ID: 1, Tokens: chain.NewTokenSet(0, 1), Pos: 1},
	}
	base := DM(rings, nil, origin)
	if base.Metrics.Traced != 0 || base.Metrics.MinAnonymity != 2 {
		t.Fatalf("DM base: %+v", base.Metrics)
	}
	rep := ForcedClosure(rings, nil, origin, ForcedOptions{})
	if rep.Metrics.MinAnonymity != 1 {
		t.Fatalf("one revealed pair must collapse the cycle: %+v", rep.Metrics)
	}
	if rep.WorstPin == nil || rep.WorstPin.NewlyTraced != 1 {
		t.Fatalf("worst pin = %+v, want NewlyTraced 1", rep.WorstPin)
	}
	if rep.Pins != 4 { // 2 rings × 2 admissible tokens
		t.Fatalf("pins = %d, want 4", rep.Pins)
	}
	if rep.Components != 1 {
		t.Fatalf("components = %d, want 1", rep.Components)
	}
}

func TestForcedClosureNeverGrowsSets(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		rings := randomRecords(rng, 2+rng.Intn(8), 2+rng.Intn(12), 4)
		dm := DM(rings, nil, origin)
		fc := ForcedClosure(rings, nil, origin, ForcedOptions{})
		if fc.Degenerate != dm.Degenerate {
			t.Fatalf("trial %d: degeneracy disagrees", trial)
		}
		for i := range rings {
			if !fc.Observations[i].Remaining.SubsetOf(dm.Observations[i].Remaining) {
				t.Fatalf("trial %d ring %d: forced %v ⊄ dm %v",
					trial, i, fc.Observations[i].Remaining, dm.Observations[i].Remaining)
			}
		}
		if fc.Metrics.MinAnonymity > dm.Metrics.MinAnonymity && !fc.Degenerate {
			t.Fatalf("trial %d: forced min %d > dm min %d",
				trial, fc.Metrics.MinAnonymity, dm.Metrics.MinAnonymity)
		}
	}
}

func TestForcedClosurePinCap(t *testing.T) {
	rings := []chain.RingRecord{
		{ID: 0, Tokens: chain.NewTokenSet(0, 1)},
		{ID: 1, Tokens: chain.NewTokenSet(0, 1)},
		{ID: 2, Tokens: chain.NewTokenSet(2, 3)},
		{ID: 3, Tokens: chain.NewTokenSet(2, 3)},
	}
	rep := ForcedClosure(rings, nil, origin, ForcedOptions{MaxPins: 2})
	if !rep.Capped || rep.Pins != 2 {
		t.Fatalf("capped=%v pins=%d, want capped after 2", rep.Capped, rep.Pins)
	}
	if rep.Components != 2 {
		t.Fatalf("components = %d, want 2", rep.Components)
	}
}

func TestTemporalFuturePruning(t *testing.T) {
	// Ring 0 claims token 5, born after its spend on the adversary's clock:
	// sound pruning traces the ring. Ring 1 is unaffected.
	rings := []chain.RingRecord{
		{ID: 0, Tokens: chain.NewTokenSet(0, 5), Pos: 0},
		{ID: 1, Tokens: chain.NewTokenSet(1, 2), Pos: 1},
	}
	rep := Temporal(rings, nil, origin, TemporalOptions{
		SpendTime: func(id chain.RSID) int { return 3 },
	})
	if !rep.Observations[0].Remaining.Equal(chain.NewTokenSet(0)) {
		t.Fatalf("ring 0 = %v, want traced to {0}", rep.Observations[0].Remaining)
	}
	if rep.Pruned != 1 {
		t.Fatalf("pruned = %d, want 1", rep.Pruned)
	}
	if len(rep.Observations[1].Remaining) != 2 {
		t.Fatalf("ring 1 must stay ambiguous: %v", rep.Observations[1].Remaining)
	}
}

func TestTemporalContradictoryClockReverts(t *testing.T) {
	// Every candidate of ring 0 postdates its spend: a broken clock. The
	// attack must revert the ring rather than empty it.
	rings := []chain.RingRecord{
		{ID: 0, Tokens: chain.NewTokenSet(4, 5), Pos: 0},
	}
	rep := Temporal(rings, nil, origin, TemporalOptions{
		SpendTime: func(id chain.RSID) int { return 1 },
	})
	if rep.Reverted != 1 {
		t.Fatalf("reverted = %d, want 1", rep.Reverted)
	}
	if len(rep.Observations[0].Remaining) != 2 {
		t.Fatalf("ring 0 = %v, want untouched", rep.Observations[0].Remaining)
	}
}

func TestTemporalWindowPrior(t *testing.T) {
	// One ring over four free-floating tokens: DM keeps all four, the
	// window-2 prior narrows suspicion to the two newest.
	rings := []chain.RingRecord{
		{ID: 0, Tokens: chain.NewTokenSet(0, 1, 2, 3), Pos: 0},
	}
	rep := Temporal(rings, nil, origin, TemporalOptions{Window: 2})
	if !rep.Observations[0].Remaining.Equal(chain.NewTokenSet(2, 3)) {
		t.Fatalf("window prior = %v, want {2, 3}", rep.Observations[0].Remaining)
	}
	if rep.Pruned != 2 {
		t.Fatalf("pruned = %d, want 2", rep.Pruned)
	}
	// The prior proves nothing: no consumption facts.
	if rep.Metrics.ConsumedTokens != 0 {
		t.Fatalf("window prior must not prove consumption: %+v", rep.Metrics)
	}
}

func TestTemporalWindowRevertsWhenGraphDisagrees(t *testing.T) {
	// Ring 1's two newest members are both provably consumed by the traced
	// singletons, so the window prior contradicts the graph and reverts.
	rings := []chain.RingRecord{
		{ID: 0, Tokens: chain.NewTokenSet(2)},
		{ID: 1, Tokens: chain.NewTokenSet(3)},
		{ID: 2, Tokens: chain.NewTokenSet(0, 1, 2, 3)},
	}
	rep := Temporal(rings, nil, origin, TemporalOptions{Window: 2})
	if rep.Reverted != 1 {
		t.Fatalf("reverted = %d, want 1 (prior names only consumed tokens)", rep.Reverted)
	}
	if !rep.Observations[2].Remaining.Equal(chain.NewTokenSet(0, 1)) {
		t.Fatalf("ring 2 = %v, want DM set {0, 1}", rep.Observations[2].Remaining)
	}
}

func TestAuditRunsAllAttacksDeterministically(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rings := randomRecords(rng, 10, 14, 4)
	opts := Options{Temporal: TemporalOptions{Window: 2}}
	a := Audit(rings, origin, opts)
	b := Audit(rings, origin, opts)
	if len(a) != len(AttackNames()) {
		t.Fatalf("reports = %d, want %d", len(a), len(AttackNames()))
	}
	for i, name := range AttackNames() {
		if a[i].Attack != name {
			t.Fatalf("report %d = %q, want %q", i, a[i].Attack, name)
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Audit is not deterministic")
	}
}

func TestAuditAttackSelection(t *testing.T) {
	rings := []chain.RingRecord{{ID: 0, Tokens: chain.NewTokenSet(0, 1)}}
	reps := Audit(rings, origin, Options{Attacks: []string{"dm", "temporal"}})
	if len(reps) != 2 || reps[0].Attack != "dm" || reps[1].Attack != "temporal" {
		t.Fatalf("selection failed: %+v", reps)
	}
}

func TestDegenerateLedgerProvesNothing(t *testing.T) {
	// Two singleton rings fighting over one token: no combination exists.
	rings := []chain.RingRecord{
		{ID: 0, Tokens: chain.NewTokenSet(0)},
		{ID: 1, Tokens: chain.NewTokenSet(0)},
	}
	for _, rep := range Audit(rings, origin, Options{Temporal: TemporalOptions{Window: 1}}) {
		if rep.Attack == "cascade" {
			continue // the cascade has its own contradictory-view contract
		}
		if !rep.Degenerate {
			t.Fatalf("%s: degenerate instance not flagged", rep.Attack)
		}
		if rep.Metrics.ConsumedTokens != 0 {
			t.Fatalf("%s proved consumption on a degenerate ledger", rep.Attack)
		}
	}
}
