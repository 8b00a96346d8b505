package main

import (
	"context"
	"fmt"

	"tokenmagic/internal/adversary/graphattack"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/obs"
	"tokenmagic/internal/obs/trace"
	itm "tokenmagic/internal/tokenmagic"
)

// replayLedger is the end-of-run audit's core: it replays every committed
// ring, in order, on a fresh framework over the same base chain, and fails
// unless the Step-3 check (VerifyRS) and Commit admit each one. A ring
// appended to the chain behind the node's back — one that breaks
// superset-or-disjoint, diversity or the η guard — fails here.
func replayLedger(rings []chain.RingRecord, base *chain.Ledger, lambda int) error {
	fw, err := itm.New(base, frameworkConfig(lambda, obs.NewRegistry()), nil)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	for i, r := range rings {
		req := diversity.Requirement{C: r.C, L: r.L}
		if err := fw.VerifyRS(r.Tokens, req); err != nil {
			return fmt.Errorf("audit: committed ring %d is rejected on replay: %w", i, err)
		}
		if _, err := fw.Commit(r.Tokens, req); err != nil {
			return fmt.Errorf("audit: committed ring %d does not commit on replay: %w", i, err)
		}
	}
	return nil
}

// uniqueImages fails if two spends share a key image (a double spend).
func uniqueImages(images [][]byte) error {
	seen := make(map[string]int, len(images))
	for i, img := range images {
		if j, dup := seen[string(img)]; dup {
			return fmt.Errorf("audit: spends %d and %d share a key image", j, i)
		}
		seen[string(img)] = i
	}
	return nil
}

// anonymity runs the Dulmage–Mendelsohn attack (Egger et al.) over the
// final ledger, in a "dm" benchmark span, and returns the mean effective
// anonymity-set size.
func anonymity(ctx context.Context, v *chain.View) float64 {
	sp := trace.StartChild(ctx, "dm")
	defer sp.End()
	return graphattack.DM(v.Rings(), nil, v.OriginFunc()).Metrics.AvgAnonymity
}

// benchTrace roots a trace for the benchmark's own spans (reopen, the
// audit's DM) in a private collector.
func benchTrace(route string) (context.Context, func() trace.TraceJSON) {
	c := trace.NewCollector()
	ctx, tr := trace.New(context.Background(), c, route)
	return ctx, func() trace.TraceJSON {
		tr.Finish("done")
		return only(c)
	}
}
