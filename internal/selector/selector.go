// Package selector implements the paper's DA-MS solvers:
//
//   - BFS: the exact breadth-first search (Algorithm 2 + GetDTRSs), feasible
//     only on small universes; it realises the full Definition-5 constraint
//     set (diversity, non-eliminated, immutability) via exact enumeration.
//   - Progressive: the two-phase greedy approximation (Algorithm 4) with
//     ratio ε + q_M·z_M·10^γ (Theorem 6.5).
//   - Game: the potential-game best-response algorithm (Algorithm 5),
//     convergent in O(n³) (Theorem 6.6) with PoS ≤ 1 (Theorem 6.7).
//   - Smallest, Random: the paper's two baselines (TM_S, TM_R).
//
// All practical solvers work under the paper's two practical configurations:
// a new ring is a union of "modules" (super rings and fresh tokens,
// Definitions 7–8), and its HT multiset must satisfy the headroom
// requirement (c, ℓ+1) so that every DTRS retains (c, ℓ) (Theorem 6.4) and
// existing rings keep their declared diversity (immutability for free).
//
// The greedy hot loops are allocation-free: the module list of a
// decomposition, with each module's HT footprint (distinct HTs plus
// multiplicities), is built once (Modules) and shared read-only by the
// Problem of every consuming token over it, slack probes are delta
// evaluations against the incremental diversity index (diversity.Histogram),
// and the running selection tracks only a token count — the result TokenSet
// is materialised once, at the end.
package selector

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
)

// cancelled is the cooperative cancellation probe the solver loops poll at
// iteration boundaries. It never blocks.
func cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// ctxErr wraps a context failure so callers can both errors.Is it against
// context.Canceled/DeadlineExceeded and tell it apart from ErrNoEligible.
func ctxErr(ctx context.Context) error {
	return fmt.Errorf("selector: solve cancelled: %w", ctx.Err())
}

// Module is a selectable unit under the first practical configuration:
// either one super ring signature or one fresh token.
type Module struct {
	Tokens chain.TokenSet
	Fresh  bool       // true when the module is a single fresh token
	Super  chain.RSID // the super ring's id when !Fresh
}

// Size returns |x_i|, the token count of the module.
func (m Module) Size() int { return len(m.Tokens) }

// footprint is a module's HT profile: the distinct HTs its tokens map to and
// how many tokens map to each. Computed once per module list (Modules), so
// the greedy loops never call Origin or build scratch maps.
type footprint struct {
	txs []chain.TxID
	ns  []int
}

// Super is a super ring signature (Definition 7) with its subset count v.
type Super struct {
	Ring        chain.RingRecord
	SubsetCount int // v: rings in R_π^T that are subsets of this ring (incl. itself)
}

// Decompose splits the related RS set over a universe into super rings and
// fresh tokens (Definitions 7 and 8). rings must be in proposal order.
// A ring is super when no later ring is a superset of it; a token is fresh
// when no ring contains it.
//
// Rings are scanned in one sorted-by-size order: a superset of r must be at
// least as large as r and a subset at most as large, so each check walks the
// size-sorted candidates and exits as soon as sizes cross |r| — O(r log r)
// for the sort plus only the size-admissible subset checks, instead of the
// former all-pairs O(r²).
//
//tmlint:readonly rings universe
func Decompose(rings []chain.RingRecord, universe chain.TokenSet) (supers []Super, fresh chain.TokenSet) {
	n := len(rings)
	// Indices sorted by ring size, descending; sizeAsc is the same walk from
	// the other end.
	bySizeDesc := make([]int, n)
	for i := range bySizeDesc {
		bySizeDesc[i] = i
	}
	sort.SliceStable(bySizeDesc, func(a, b int) bool {
		return len(rings[bySizeDesc[a]].Tokens) > len(rings[bySizeDesc[b]].Tokens)
	})

	var coveredIDs []chain.TokenID
	for _, r := range rings {
		coveredIDs = append(coveredIDs, r.Tokens...)
	}

	for i, ri := range rings {
		size := len(ri.Tokens)
		isSuper := true
		for _, j := range bySizeDesc {
			if len(rings[j].Tokens) < size {
				break // early exit: no smaller ring can be a superset
			}
			if j > i && ri.Tokens.SubsetOf(rings[j].Tokens) {
				isSuper = false
				break
			}
		}
		if !isSuper {
			continue
		}
		v := 0
		for k := n - 1; k >= 0; k-- {
			j := bySizeDesc[k]
			if len(rings[j].Tokens) > size {
				break // early exit: no larger ring can be a subset
			}
			if rings[j].Tokens.SubsetOf(ri.Tokens) {
				v++
			}
		}
		supers = append(supers, Super{Ring: ri, SubsetCount: v})
	}
	fresh = universe.Minus(chain.NewTokenSet(coveredIDs...))
	return supers, fresh
}

// Modules is the module list of one decomposition (Definitions 7–8): every
// super ring in decomposition order, then every fresh token, each with its
// HT footprint, plus the module holding each token. It is built once and
// never written again, so the Problems of every consuming token over one
// decomposition share it, from any number of goroutines.
type Modules struct {
	list   []Module
	fps    []footprint // fps[i] is list[i]'s HT footprint
	holder map[chain.TokenID]int
	origin func(chain.TokenID) chain.TxID
}

// holderConflict marks a token that more than one module holds, which the
// first practical configuration forbids.
const holderConflict = -1

// NewModules builds the module list of a decomposition (see Decompose). A
// fresh module's token set aliases fresh's backing array, so fresh must not
// be mutated afterwards.
//
//tmlint:readonly supers fresh
func NewModules(supers []Super, fresh chain.TokenSet, origin func(chain.TokenID) chain.TxID) *Modules {
	n := len(supers) + len(fresh)
	tokens := len(fresh)
	for _, s := range supers {
		tokens += len(s.Ring.Tokens)
	}
	ms := &Modules{
		list:   make([]Module, 0, n),
		fps:    make([]footprint, 0, n),
		holder: make(map[chain.TokenID]int, tokens),
		origin: origin,
	}
	// Every footprint is a window of one pair of backing arrays: a module
	// has at most one distinct HT per token.
	txs := make([]chain.TxID, 0, tokens)
	ns := make([]int, 0, tokens)
	add := func(m Module) {
		i := len(ms.list)
		ms.list = append(ms.list, m)
		start := len(txs)
		for _, t := range m.Tokens {
			if _, dup := ms.holder[t]; dup {
				ms.holder[t] = holderConflict
			} else {
				ms.holder[t] = i
			}
			h := origin(t)
			j := start
			for j < len(txs) && txs[j] != h {
				j++
			}
			if j < len(txs) {
				ns[j]++
			} else {
				txs = append(txs, h)
				ns = append(ns, 1)
			}
		}
		end := len(txs)
		ms.fps = append(ms.fps, footprint{txs: txs[start:end:end], ns: ns[start:end:end]})
	}
	for _, s := range supers {
		add(Module{Tokens: s.Ring.Tokens, Super: s.Ring.ID})
	}
	for i := range fresh {
		add(Module{Tokens: fresh[i : i+1 : i+1], Fresh: true})
	}
	return ms
}

// Problem returns the DA-MS instance for consuming target over these
// modules: the module holding target is mandatory and every other module is
// a candidate. The Problem shares the list and records only the mandatory
// module's index. It returns an error if target is in no module or in more
// than one.
func (ms *Modules) Problem(target chain.TokenID, req diversity.Requirement) (*Problem, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	i, ok := ms.holder[target]
	if !ok {
		return nil, fmt.Errorf("selector: target %v not in universe", target)
	}
	if i == holderConflict {
		supers := 0
		for _, m := range ms.list {
			if !m.Fresh && m.Tokens.Contains(target) {
				supers++
			}
		}
		if supers > 1 {
			return nil, fmt.Errorf("selector: target %v in multiple super rings (configuration violated)", target)
		}
		return nil, fmt.Errorf("selector: target %v is both fresh and in a super ring", target)
	}
	return &Problem{Target: target, Mandatory: ms.list[i], Origin: ms.origin, Req: req, mods: ms, mand: i}, nil
}

// Problem is one modular DA-MS instance: choose a minimum-cardinality union
// of modules containing the mandatory module such that the union's HT
// multiset satisfies Req. Build it with NewProblem or Modules.Problem.
type Problem struct {
	// Target is the token being consumed.
	Target chain.TokenID
	// Mandatory is the module containing Target (its super ring, or the
	// token itself when fresh). It is always part of the result.
	Mandatory Module
	// Origin maps tokens to historical transactions.
	Origin func(chain.TokenID) chain.TxID
	// Req is the effective diversity requirement the result's HT multiset
	// must satisfy. Callers wanting the second practical configuration pass
	// the user requirement tightened via Requirement.WithHeadroom.
	Req diversity.Requirement

	// mods is the shared module list, with precomputed HT footprints;
	// mods.list[mand] is Mandatory. The solvers start with mand selected,
	// so every other module is a candidate, in list order.
	mods *Modules
	mand int
}

// Candidates returns the selectable modules other than the mandatory one,
// in module order. It copies; the solvers read the shared list in place.
func (p *Problem) Candidates() []Module {
	if p.mods == nil {
		return nil
	}
	out := make([]Module, 0, len(p.mods.list)-1)
	out = append(out, p.mods.list[:p.mand]...)
	return append(out, p.mods.list[p.mand+1:]...)
}

// others returns the indices of every module but the mandatory one, in
// module order: the candidate order the solvers sweep and draw from.
func (p *Problem) others() []int {
	out := make([]int, 0, len(p.mods.list)-1)
	for i := range p.mods.list {
		if i != p.mand {
			out = append(out, i)
		}
	}
	return out
}

// NewProblem assembles a Problem from a decomposition: it builds the
// decomposition's module list and picks target's module from it. Callers
// solving for many targets over one decomposition build the list once with
// NewModules and call Modules.Problem per target instead.
//
//tmlint:readonly supers fresh
func NewProblem(target chain.TokenID, supers []Super, fresh chain.TokenSet, origin func(chain.TokenID) chain.TxID, req diversity.Requirement) (*Problem, error) {
	return NewModules(supers, fresh, origin).Problem(target, req)
}

// Result is a solved DA-MS instance.
type Result struct {
	// Tokens is the full new ring signature: the consuming token plus
	// mixins, as the union of the chosen modules.
	Tokens chain.TokenSet
	// Modules is how many modules were chosen (including the mandatory one).
	Modules int
	// Iterations counts algorithm-specific work: greedy steps for
	// Progressive/Smallest/Random, best-response passes for Game, candidate
	// rings examined for BFS.
	Iterations int
}

// Size returns the cardinality of the new ring.
func (r Result) Size() int { return len(r.Tokens) }

// ErrNoEligible is returned when no ring satisfying the constraints exists
// over the given modules; per Section 4 the user should relax (c, ℓ) —
// increase c or decrease ℓ — and retry.
var ErrNoEligible = errors.New("selector: no eligible ring signature exists; relax the diversity requirement")

// state tracks the running selection shared by the greedy algorithms. Module
// unions are tracked as an incremental HT histogram plus a token count;
// modules never overlap under the first practical configuration, so the
// union's cardinality is the sum of the selected modules' sizes and the full
// TokenSet only needs materialising once, in result().
type state struct {
	p        *Problem
	mods     []Module
	fps      []footprint
	hist     *diversity.Histogram
	selected []bool // over p.mods.list; the mandatory module starts selected
	modules  int
	nTokens  int // |union of selected modules|
	iters    int
}

func newState(p *Problem) *state {
	st := &state{
		p:        p,
		mods:     p.mods.list,
		fps:      p.mods.fps,
		hist:     diversity.NewHistogram(),
		selected: make([]bool, len(p.mods.list)),
	}
	st.add(p.mand)
	return st
}

// add selects module i.
//
//tmlint:hotpath
func (st *state) add(i int) {
	st.selected[i] = true
	st.modules++
	st.nTokens += st.mods[i].Size()
	fp := &st.fps[i]
	for j, tx := range fp.txs {
		st.hist.AddN(tx, fp.ns[j])
	}
}

// remove deselects module i. Only valid when modules do not overlap
// (guaranteed under the first practical configuration).
//
//tmlint:hotpath
func (st *state) remove(i int) {
	st.selected[i] = false
	st.modules--
	st.nTokens -= st.mods[i].Size()
	fp := &st.fps[i]
	for j, tx := range fp.txs {
		st.hist.RemoveN(tx, fp.ns[j])
	}
}

// result materialises the selection as a TokenSet.
func (st *state) result() Result {
	ids := make([]chain.TokenID, 0, st.nTokens)
	for i, sel := range st.selected {
		if sel {
			ids = append(ids, st.mods[i].Tokens...)
		}
	}
	return Result{Tokens: chain.NewTokenSet(ids...), Modules: st.modules, Iterations: st.iters}
}

// newHTs counts |H_i \ H|: distinct HTs module i would newly contribute.
//
//tmlint:hotpath
func (st *state) newHTs(i int) int {
	n := 0
	for _, tx := range st.fps[i].txs {
		if st.hist.Count(tx) == 0 {
			n++
		}
	}
	return n
}

// slackWith returns δ_i: the requirement slack if module i were added.
// It is a read-only delta probe against the incremental index: the module's
// precomputed footprint is overlaid on the count-of-counts walk without
// mutating the histogram — no cloning, no allocation, no undo step.
//
//tmlint:hotpath
func (st *state) slackWith(i int) float64 {
	fp := &st.fps[i]
	return st.hist.SlackIfAddedN(st.p.Req, fp.txs, fp.ns)
}

// coverHTPhase runs the shared first phase of Progressive and Game
// (Algorithm 4 lines 2–4 / Algorithm 5 lines 2–4): greedily add the module
// with minimal α_i = |x_i| / min(ℓ−|H|, |H_i \ H|) until the selection spans
// at least ℓ distinct HTs. Cancellation is checked once per greedy step.
func (st *state) coverHTPhase(ctx context.Context) error {
	for st.hist.Classes() < st.p.Req.L {
		if cancelled(ctx) {
			return ctxErr(ctx)
		}
		st.iters++
		need := st.p.Req.L - st.hist.Classes()
		best := -1
		bestAlpha := math.Inf(1)
		for i, m := range st.mods {
			if st.selected[i] {
				continue
			}
			gain := st.newHTs(i)
			if gain == 0 {
				continue // α_i = ∞
			}
			denom := need
			if gain < denom {
				denom = gain
			}
			alpha := float64(m.Size()) / float64(denom)
			if alpha < bestAlpha {
				bestAlpha, best = alpha, i
			}
		}
		if best == -1 {
			return ErrNoEligible // universe cannot span ℓ distinct HTs
		}
		st.add(best)
	}
	return nil
}
