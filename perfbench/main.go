// Command perfbench is the repository's benchmark. For one workload and
// seed it builds a multi-block chain, starts an in-process TokenMagic node,
// drives it over its HTTP protocol (nodesvc on loopback) from two client
// goroutines on two connections, audits the ledger the node committed, and
// prints one JSON line of metrics. From the root of the repository:
//
//	bash perfbench/run.sh --workload spend-l100 --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced. With
// --trace 1 it prints the per-layer metrics: from a traced round, in which
// every request carries a trace joining the program's own spans, from the
// benchmark's spans around its calls into the store, node and attack
// layers, from the round's metrics registry, and from a deterministic
// single-client count pass. See README.md for what each metric should move.
//
// A run exits non-zero, without a result line, when the chain's batch check
// or the end-of-run audit fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tokenmagic/internal/obs/trace"
)

type kind int

const (
	spendLoop kind = iota
	minerReplay
)

// spec is one workload: its load shape and the work one round does.
type spec struct {
	name   string
	kind   kind
	lambda int
	// tokens is the chain population; spends the spends per round; rings
	// the client-side rings miner-replay submits; countSpends the spends
	// of the count pass; mineEvery the submissions per mined block;
	// stockSample the signatures re-verified with ringsig.StockVerify.
	tokens, spends, rings, countSpends, mineEvery, stockSample int
	// traceClients and traceSpends, when set, give the traced pair its own
	// load. At λ=800 a spend's trace holds about 1,700 spans, and one that
	// loses a same-batch commit race and retries would pass the collector's
	// 2,048-span budget, so the traced pair runs one client.
	traceClients, traceSpends int
	// setups is how many times a run sets up at least; setup_s is their
	// median. A spend setup takes a fifth of a second, a miner-replay setup
	// (which signs every ring) about two.
	setups int
}

var workloads = []spec{
	{name: "spend-l100", kind: spendLoop, lambda: 100, tokens: 4000, spends: 300, countSpends: 60, setups: 5},
	{name: "spend-l800", kind: spendLoop, lambda: 800, tokens: 4000, spends: 30, countSpends: 6, traceClients: 1, traceSpends: 30, setups: 5},
	{name: "miner-replay", kind: minerReplay, lambda: 100, tokens: 4000, rings: 400, mineEvery: 16, stockSample: 32, setups: 3},
}

// reopens is how many times each round reopens its node; a round's reopen
// time is their median, and reopen_s the median over rounds. A reopen takes
// a tenth of a second, short enough for one noisy sample to decide the
// figure.
const reopens = 9

type params struct {
	spec
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string // scratch space for store data dirs, inside the checkout
	counts  []int  // Figure-3 output counts
}

func main() { os.Exit(run()) }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

func run() int {
	name := flag.String("workload", "", "workload: spend-l100, spend-l800 or miner-replay")
	seed := flag.Int64("seed", 1, "seed the keys, targets and signing randomness are drawn from")
	seconds := flag.Int("seconds", 40, "how long the rounds measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	var w *spec
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		logf("usage: --workload spend-l100|spend-l800|miner-replay --seed N --seconds S --trace 0|1")
		return 2
	}
	res, err := bench(*w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		logf("%v", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// bench runs one workload and returns its checked result.
func bench(w spec, seed int64, seconds time.Duration, traced bool) (*result, error) {
	// The program's default collector stays off: end-to-end runs are
	// untraced, and traced rounds root their traces in the benchmark's own
	// collectors (traceSink).
	trace.Default().SetEnabled(false)
	counts, err := figure3Counts()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	p := &params{spec: w, seed: seed, seconds: seconds, traced: traced, dir: dir, counts: counts}
	var res *result
	switch {
	case w.kind == minerReplay && traced:
		res, err = replayLayers(p)
	case w.kind == minerReplay:
		res, err = replayEndToEnd(p)
	case traced:
		res, err = spendLayers(p)
	default:
		res, err = spendEndToEnd(p)
	}
	if err != nil {
		return nil, err
	}
	return res, res.check(traced)
}

// roundDir is a fresh store data dir for one round.
func (p *params) roundDir(i int) string { return filepath.Join(p.dir, fmt.Sprintf("round-%d", i)) }

// measureRounds calls round until the rounds, set-up and audit included,
// have taken p.seconds. A round that would overrun the remaining time,
// judged by the longest before it, is not started; the first always runs.
func measureRounds(p *params, round func(i int) error) error {
	start := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		t := time.Now()
		if err := round(i); err != nil {
			return err
		}
		longest = max(longest, time.Since(t))
		if time.Since(start)+longest > p.seconds {
			return nil
		}
	}
}
