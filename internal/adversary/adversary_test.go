package adversary

import (
	"testing"

	"tokenmagic/internal/chain"
)

func rec(id int, toks ...chain.TokenID) chain.RingRecord {
	return chain.RingRecord{ID: chain.RSID(id), Tokens: chain.NewTokenSet(toks...), Pos: id}
}

func originOf(hts map[chain.TokenID]chain.TxID) func(chain.TokenID) chain.TxID {
	return func(t chain.TokenID) chain.TxID {
		if h, ok := hts[t]; ok {
			return h
		}
		return chain.NoTx
	}
}

// Paper Example 1 second solution: r1 = r2 = {t1,t2}, r3 = {t2,t3}.
// The two identical rings consume both t1 and t2 (Theorem 4.1), so the
// consumed token of r3 must be t3.
func TestChainReactionEliminates(t *testing.T) {
	rings := []chain.RingRecord{
		rec(0, 1, 2),
		rec(1, 1, 2),
		rec(2, 2, 3),
	}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 10, 2: 20, 3: 30})
	a := ChainReaction(rings, nil, origin)

	if !a.Consumed.Contains(1) || !a.Consumed.Contains(2) || !a.Consumed.Contains(3) {
		t.Fatalf("consumed = %v, want {1,2,3}", a.Consumed)
	}
	r3 := a.Observations[2]
	if !r3.Traced || !r3.Remaining.Equal(chain.NewTokenSet(3)) {
		t.Fatalf("r3 should be traced to t3, got %+v", r3)
	}
	if !r3.HTKnown || r3.HT != 30 {
		t.Fatalf("r3 HT should be revealed as 30, got %+v", r3)
	}
	// r1 and r2 stay ambiguous between t1 and t2.
	if a.Observations[0].Traced || a.Observations[1].Traced {
		t.Fatal("identical rings must stay untraced")
	}
}

// The "good" Example 1 solution resists: r1 = r2 = {t1,t2}, r3 = {t3,t4}.
func TestChainReactionResisted(t *testing.T) {
	rings := []chain.RingRecord{
		rec(0, 1, 2),
		rec(1, 1, 2),
		rec(2, 3, 4),
	}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 10, 2: 20, 3: 30, 4: 40})
	a := ChainReaction(rings, nil, origin)
	if a.Observations[2].Traced {
		t.Fatal("disjoint ring must not be traced")
	}
	if a.Observations[2].HTKnown {
		t.Fatal("heterogeneous ring must not reveal HT")
	}
	// Theorem 4.1 still proves t1, t2 consumed.
	if !a.Consumed.Contains(1) || !a.Consumed.Contains(2) {
		t.Fatalf("consumed = %v, want ⊇ {1,2}", a.Consumed)
	}
	if a.Consumed.Contains(3) || a.Consumed.Contains(4) {
		t.Fatalf("tokens of the fresh ring wrongly consumed: %v", a.Consumed)
	}
}

// Homogeneity attack: all candidates from one HT reveal the HT even without
// tracing the token.
func TestHomogeneityAttack(t *testing.T) {
	rings := []chain.RingRecord{rec(0, 1, 2)}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 7, 2: 7})
	a := ChainReaction(rings, nil, origin)
	o := a.Observations[0]
	if o.Traced {
		t.Fatal("two candidates: not traced")
	}
	if !o.HTKnown || o.HT != 7 {
		t.Fatalf("homogeneous ring should reveal HT 7, got %+v", o)
	}
}

// Side information pins rings and cascades.
func TestChainReactionSideInfo(t *testing.T) {
	// Example 2: revealing <t2, r1> forces r4 = t4, then r5 ∈ {t5, t6}.
	rings := []chain.RingRecord{
		rec(1, 1, 2, 5),
		rec(2, 1, 3),
		rec(3, 1, 3),
		rec(4, 2, 4),
		rec(5, 4, 5, 6),
	}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 10, 2: 20, 3: 30, 4: 40, 5: 1, 6: 1})
	a := ChainReaction(rings, SideInfo{1: 2}, origin)

	if o := a.Observations[0]; !o.Traced || o.Remaining[0] != 2 {
		t.Fatalf("r1 should be pinned to t2: %+v", o)
	}
	if o := a.Observations[3]; !o.Traced || o.Remaining[0] != 4 {
		t.Fatalf("r4 should cascade to t4: %+v", o)
	}
	o := a.Observations[4]
	if o.Traced {
		t.Fatalf("r5 stays ambiguous between t5/t6: %+v", o)
	}
	if !o.HTKnown || o.HT != 1 {
		t.Fatalf("r5's HT should be revealed as h1 (homogeneity): %+v", o)
	}
}

func TestSideInfoIgnoresForeignToken(t *testing.T) {
	rings := []chain.RingRecord{rec(0, 1, 2)}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 2})
	// Side info claims r0 consumed t9, which r0 does not contain: ignored.
	a := ChainReaction(rings, SideInfo{0: 9}, origin)
	if a.Observations[0].Traced {
		t.Fatal("invalid side info must be ignored")
	}
}

func TestChainReactionEmpty(t *testing.T) {
	a := ChainReaction(nil, nil, func(chain.TokenID) chain.TxID { return chain.NoTx })
	if len(a.Observations) != 0 || len(a.Consumed) != 0 {
		t.Fatalf("empty analysis should be empty, got %+v", a)
	}
}

// Nested chain: r0={1}, r1={1,2}, r2={1,2,3}: each link traces in turn.
func TestChainReactionNestedCascade(t *testing.T) {
	rings := []chain.RingRecord{rec(0, 1), rec(1, 1, 2), rec(2, 1, 2, 3)}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 2, 3: 3})
	a := ChainReaction(rings, nil, origin)
	for i, want := range []chain.TokenID{1, 2, 3} {
		o := a.Observations[i]
		if !o.Traced || o.Remaining[0] != want {
			t.Fatalf("ring %d should trace to %v: %+v", i, want, o)
		}
	}
	if len(a.Consumed) != 3 {
		t.Fatalf("consumed = %v", a.Consumed)
	}
}

func TestSummarise(t *testing.T) {
	rings := []chain.RingRecord{
		rec(0, 1, 2),
		rec(1, 1, 2),
		rec(2, 2, 3),
	}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 10, 2: 20, 3: 30})
	m := Summarise(ChainReaction(rings, nil, origin))
	if m.Rings != 3 {
		t.Fatalf("Rings = %d", m.Rings)
	}
	if m.Traced != 1 {
		t.Fatalf("Traced = %d, want 1 (r3 only)", m.Traced)
	}
	if m.HTRevealed != 1 {
		t.Fatalf("HTRevealed = %d, want 1", m.HTRevealed)
	}
	// Remaining sizes: 2, 2, 1 → avg 5/3.
	if want := 5.0 / 3.0; m.AvgAnonymity < want-1e-9 || m.AvgAnonymity > want+1e-9 {
		t.Fatalf("AvgAnonymity = %v, want %v", m.AvgAnonymity, want)
	}
	if m.ConsumedTokens != 3 {
		t.Fatalf("ConsumedTokens = %d", m.ConsumedTokens)
	}
}

// Theorem 4.1 statement: n rings over exactly n distinct tokens → all
// consumed.
func TestTheorem41(t *testing.T) {
	rings := []chain.RingRecord{
		rec(0, 1, 2, 3),
		rec(1, 1, 2, 3),
		rec(2, 1, 2, 3),
	}
	origin := originOf(map[chain.TokenID]chain.TxID{1: 1, 2: 2, 3: 3})
	a := ChainReaction(rings, nil, origin)
	if len(a.Consumed) != 3 {
		t.Fatalf("Theorem 4.1: consumed = %v, want all 3", a.Consumed)
	}
	// And yet no single ring is traced.
	for _, o := range a.Observations {
		if o.Traced {
			t.Fatalf("no individual tracing expected: %+v", o)
		}
	}
}
