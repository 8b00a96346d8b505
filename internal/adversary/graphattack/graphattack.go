// Package graphattack is a static graph-analysis attack suite over the
// persisted RS-token bipartite graph, following the related work that
// attacks ring-signature ledgers with strictly stronger analyses than the
// paper's Theorem-4.1 cascade:
//
//   - DM: Dulmage–Mendelsohn decomposition (Egger et al., "On Defeating
//     Graph Analysis of Anonymous Transactions") splits the graph into
//     over-/under-/perfectly-constrained regions, deriving each ring's
//     effective anonymity-set size — the number of admissible consumed
//     tokens, CoinMagic's measure — and the provably-traced tokens. By the
//     admissible-edge theorem this is the exact chain-reaction closure that
//     rsgraph's per-edge matching probes compute, at a fraction of the cost
//     (differential- and fuzz-tested against those probes).
//     adversary.ChainReaction reads the same decomposition.
//   - ForcedClosure: a partition/closure attack that iterates DM with
//     forced assignments. The ledger is split into its connected
//     components; within each, every feasible (ring, token) pin is forced
//     in turn and the decomposition re-run, measuring how far one bought or
//     coerced revealed pair cascades — the worst-case residual anonymity
//     when the adversary of Definition 3 obtains a single true pair.
//   - Temporal: a side-information adversary that knows token creation
//     order, prunes candidates newer than the spend (sound, and vacuous on
//     ledgers whose append rule enforces token existence), and optionally
//     applies the guess-newest behavioural prior (the consumed token lies
//     among the Window newest ring members), intersected with the DM
//     admissible sets so the prior can never contradict the graph.
//
// Every attack is a pure function of the ring set plus explicit options —
// no wall clock, no global randomness — so audits replay bit-identically
// from a seed (enforced by the tmlint determinism analyzer via
// .tmlint.json). Attacks accept side information (revealed token-RS pairs)
// and never invent facts from contradictory views: infeasible instances
// report untouched token sets (the rsgraph.DM contract).
package graphattack

import (
	"tokenmagic/internal/adversary"
	"tokenmagic/internal/chain"
	"tokenmagic/internal/rsgraph"
)

// Report is the outcome of one static attack over a ledger's ring set.
type Report struct {
	// Attack is the registry name: "cascade", "dm", "forced_closure" or
	// "temporal".
	Attack string
	// Observations hold each ring's surviving plausible-token set under the
	// attack, in ring order.
	Observations []adversary.Observation
	// Metrics summarises the observations (traced count, HT reveals,
	// mean/min effective anonymity-set size, provably consumed tokens).
	Metrics adversary.Metrics
	// Consumed is the set of tokens the attack proves consumed. Only sound
	// facts land here: behavioural priors and forced hypotheses narrow
	// suspicion but prove nothing.
	Consumed chain.TokenSet
	// Degenerate marks an instance with no token-RS combination at all
	// (contradictory side information or a broken ledger): the attack
	// reported untouched sets and proved nothing.
	Degenerate bool

	// SquareBlocks and UnderRings describe the DM structure backing the
	// attack: fine blocks of the perfectly-constrained region, and rings in
	// the underconstrained region (where nothing is provably consumed).
	SquareBlocks int
	UnderRings   int
	// Components is the number of connected components the forced-closure
	// attack partitioned the graph into (0 for other attacks).
	Components int

	// Pins counts forced-assignment hypotheses evaluated; WorstPin is the
	// single revealed pair that newly traced the most rings. Capped is set
	// when MaxPins truncated the hypothesis sweep.
	Pins     int
	WorstPin *Pin
	Capped   bool

	// Pruned counts candidate tokens removed by the temporal adversary;
	// Reverted counts rings whose temporal prior contradicted the graph
	// and fell back to the DM set.
	Pruned   int
	Reverted int
}

// Pin is one forced token-RS assignment hypothesis and its fallout.
type Pin struct {
	Ring  chain.RSID
	Token chain.TokenID
	// NewlyTraced is how many OTHER rings the single pin collapses to one
	// plausible token (beyond those DM already traced unconditionally).
	NewlyTraced int
}

// observations derives per-ring observations from survivor sets.
func observations(rings []chain.RingRecord, sets []chain.TokenSet, origin func(chain.TokenID) chain.TxID) []adversary.Observation {
	out := make([]adversary.Observation, len(rings))
	for i, r := range rings {
		out[i] = adversary.Observe(r.ID, sets[i], origin)
	}
	return out
}

// DM runs the Dulmage–Mendelsohn decomposition attack: the exact
// chain-reaction closure derived structurally from one maximum matching.
func DM(rings []chain.RingRecord, si adversary.SideInfo, origin func(chain.TokenID) chain.TxID) Report {
	in := rsgraph.NewInstance(adversary.Pin(rings, si))
	d := in.Decompose()
	rep := Report{
		Attack:       "dm",
		Observations: observations(rings, d.Feasible(), origin),
		Degenerate:   !d.Saturated,
		SquareBlocks: d.SquareBlocks,
		UnderRings:   d.UnderRings(),
		Consumed:     d.ProvablyConsumed(),
	}
	rep.Metrics = summarise(rep.Observations, rep.Consumed)
	return rep
}

// Cascade wraps the paper-faithful Theorem-4.1 greedy cascade as a Report,
// so sweeps can put the heuristic baseline in the same solver × attack
// matrix as the stronger analyses. Its traced set is a subset of DM's
// (differential- and fuzz-tested).
func Cascade(rings []chain.RingRecord, si adversary.SideInfo, origin func(chain.TokenID) chain.TxID) Report {
	a := adversary.Cascade(rings, si, origin)
	return Report{
		Attack:       "cascade",
		Observations: a.Observations,
		Metrics:      adversary.Summarise(a),
		Consumed:     a.Consumed,
	}
}

// summarise folds observations plus a consumed set into Metrics.
func summarise(obs []adversary.Observation, consumed chain.TokenSet) adversary.Metrics {
	m := adversary.Summarise(adversary.Analysis{Observations: obs, Consumed: consumed})
	return m
}

// components partitions ring indices into connected components of the
// token-sharing graph (union-find over tokens, deterministic: components
// are emitted in first-ring order).
func components(rings []rsgraph.Ring) [][]int {
	parent := make(map[chain.TokenID]chain.TokenID)
	var find func(t chain.TokenID) chain.TokenID
	find = func(t chain.TokenID) chain.TokenID {
		p, ok := parent[t]
		if !ok || p == t {
			parent[t] = t
			return t
		}
		root := find(p)
		parent[t] = root
		return root
	}
	for _, r := range rings {
		if len(r.Tokens) == 0 {
			continue
		}
		first := find(r.Tokens[0])
		for _, t := range r.Tokens[1:] {
			parent[find(t)] = first
			first = find(first)
		}
	}
	order := make(map[chain.TokenID]int) // component root -> emit order
	var groups [][]int
	for i, r := range rings {
		if len(r.Tokens) == 0 {
			groups = append(groups, []int{i}) // degenerate empty ring: own component
			continue
		}
		root := find(r.Tokens[0])
		gi, ok := order[root]
		if !ok {
			gi = len(groups)
			order[root] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// Options configures an Audit run.
type Options struct {
	// SideInfo seeds every attack with revealed token-RS pairs.
	SideInfo adversary.SideInfo
	// Temporal configures the temporal adversary.
	Temporal TemporalOptions
	// Forced configures the forced-closure sweep.
	Forced ForcedOptions
	// Attacks selects which attacks run, in registry order; nil runs all.
	Attacks []string
}

// AttackNames lists the implemented attacks in registry order.
func AttackNames() []string { return []string{"cascade", "dm", "forced_closure", "temporal"} }

// Audit runs the selected attacks over one ring set and returns their
// reports in registry order. Unknown attack names are ignored.
func Audit(rings []chain.RingRecord, origin func(chain.TokenID) chain.TxID, opts Options) []Report {
	want := make(map[string]bool, len(opts.Attacks))
	for _, a := range opts.Attacks {
		want[a] = true
	}
	selected := func(name string) bool { return len(opts.Attacks) == 0 || want[name] }

	var out []Report
	if selected("cascade") {
		out = append(out, Cascade(rings, opts.SideInfo, origin))
	}
	if selected("dm") {
		out = append(out, DM(rings, opts.SideInfo, origin))
	}
	if selected("forced_closure") {
		out = append(out, ForcedClosure(rings, opts.SideInfo, origin, opts.Forced))
	}
	if selected("temporal") {
		out = append(out, Temporal(rings, opts.SideInfo, origin, opts.Temporal))
	}
	return out
}
