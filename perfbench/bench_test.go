package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"tokenmagic/internal/chain"
	itm "tokenmagic/internal/tokenmagic"
	"tokenmagic/internal/workload"
)

// tiny shrinks a workload so a run takes a second or two. λ=800 needs more
// than 600 tokens to form two batches, so the tiny spend-l800 uses λ=200.
func tiny(w spec) spec {
	w.tokens, w.spends, w.countSpends = 600, 24, 3
	w.rings, w.stockSample = 40, 4
	if w.lambda > 200 {
		w.lambda = 200
	}
	if w.traceSpends > 0 {
		w.traceSpends = 6
	}
	return w
}

// benchmarkFile is the metric contract in ../BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, bf.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			res, err := bench(tiny(w), 7, time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			out, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var got result
			if err := json.Unmarshal(out, &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.name, traced, m.Name, g, m.Unit)
				}
			}
		}
	}
}

func TestAuditRejectsInvalidLedger(t *testing.T) {
	counts, err := figure3Counts()
	if err != nil {
		t.Fatal(err)
	}
	p := &params{spec: tiny(workloads[0]), seed: 3, counts: counts}
	fx, err := setupSpend(p)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := drawTargets(p.seed, 0, fx.led, p.lambda, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fx.node.Spend(context.Background(), targets[0], spendReq)
	if err != nil {
		t.Fatal(err)
	}
	base := func() *chain.Ledger {
		led, err := buildChain(p.tokens, p.counts)
		if err != nil {
			t.Fatal(err)
		}
		return led
	}
	if err := replayLedger(fx.led.Rings(), base(), p.lambda); err != nil {
		t.Fatalf("a ledger the node committed fails the audit: %v", err)
	}
	// A ring appended straight to the chain that shares one token with the
	// committed ring and adds another of the same batch breaks
	// superset-or-disjoint.
	bl, err := chain.BuildBatches(fx.led, p.lambda)
	if err != nil {
		t.Fatal(err)
	}
	universe, err := bl.Universe(res.Ring[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := universe.Minus(res.Ring)[:1].Add(res.Ring[0])
	if _, err := fx.led.AppendRS(bad, spendReq.C, spendReq.L); err != nil {
		t.Fatal(err)
	}
	err = replayLedger(fx.led.Rings(), base(), p.lambda)
	if !errors.Is(err, itm.ErrConfig) {
		t.Fatalf("the audit of a ring that breaks superset-or-disjoint returned %v, want %v", err, itm.ErrConfig)
	}
}

func TestBatchCheckRejectsSingleBlockChain(t *testing.T) {
	d, err := workload.Synthetic(workload.SyntheticParams{SuperSizeMin: 1, SuperSizeMax: 1, NumFresh: 4000, Sigma: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkBatches(d.Ledger, 100); err == nil {
		t.Fatal("a single-block chain passed the batch check")
	}
	counts, err := figure3Counts()
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []int{100, 800} {
		led, err := buildChain(4000, counts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkBatches(led, lambda); err != nil {
			t.Errorf("λ=%d: %v", lambda, err)
		}
	}
}
