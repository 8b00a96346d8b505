package graphattack

import (
	"testing"

	"tokenmagic/internal/adversary"
	"tokenmagic/internal/chain"
)

// FuzzDMEquivalence is the fuzz form of the differential property: on any
// ring set the DM decomposition must agree ring-for-ring with the exact
// closure of rsgraph's per-edge matching probes on the same pinned
// instance (untouched sets and nothing proven when no combination exists),
// and on feasible instances the greedy cascade must never eliminate more
// than DM. The byte stream encodes small instances
// (≤10 rings, ≤14 tokens, ring size ≤4) plus an optional revealed pair.
func FuzzDMEquivalence(f *testing.F) {
	f.Add([]byte{2, 0x03, 0x03, 0xff})          // two rings over {0,1}: a square cycle
	f.Add([]byte{3, 0x01, 0x01, 0x06, 0xff})    // duplicate singletons: degenerate
	f.Add([]byte{4, 0x0f, 0x30, 0x21, 0x0c, 0}) // mixed, pin ring 0
	f.Fuzz(func(t *testing.T, data []byte) {
		rings, si := decodeInstance(data)
		if len(rings) == 0 {
			return
		}

		dm := DM(rings, si, origin)
		cascade := adversary.Cascade(rings, si, origin)

		checkDMAgainstProbes(t, rings, si, dm)
		if dm.Degenerate {
			return // cascade ⊆ DM only holds on feasible instances
		}
		for i := range rings {
			if !dm.Observations[i].Remaining.SubsetOf(cascade.Observations[i].Remaining) {
				t.Fatalf("ring %d: cascade %v eliminated more than DM %v",
					i, cascade.Observations[i].Remaining, dm.Observations[i].Remaining)
			}
		}
		if !cascade.Consumed.SubsetOf(dm.Consumed) {
			t.Fatalf("cascade consumed %v ⊄ DM consumed %v", cascade.Consumed, dm.Consumed)
		}
	})
}

// decodeInstance maps a fuzz byte stream to a small ring set: byte 0 picks
// the ring count, each following byte is a 14-bit-truncated token bitmask
// capped at 4 members, and a final byte below the ring count pins that
// ring's first token as side information.
func decodeInstance(data []byte) ([]chain.RingRecord, adversary.SideInfo) {
	if len(data) < 2 {
		return nil, nil
	}
	n := 1 + int(data[0])%10
	if n > len(data)-1 {
		n = len(data) - 1
	}
	rings := make([]chain.RingRecord, 0, n)
	for i := 0; i < n; i++ {
		mask := (uint16(data[1+i]) | uint16(data[1+i])<<7) & 0x3fff
		var ids []chain.TokenID
		for b := 0; b < 14 && len(ids) < 4; b++ {
			if mask&(1<<b) != 0 {
				ids = append(ids, chain.TokenID(b))
			}
		}
		if len(ids) == 0 {
			continue
		}
		rings = append(rings, chain.RingRecord{
			ID: chain.RSID(len(rings)), Tokens: chain.NewTokenSet(ids...), Pos: len(rings),
		})
	}
	var si adversary.SideInfo
	if extra := len(data) - 1 - n; extra > 0 {
		if pick := int(data[1+n]); pick < len(rings) {
			si = adversary.SideInfo{rings[pick].ID: rings[pick].Tokens[0]}
		}
	}
	return rings, si
}
