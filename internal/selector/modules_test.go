package selector

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tokenmagic/internal/chain"
	"tokenmagic/internal/diversity"
	"tokenmagic/internal/workload"
)

// solveAll runs the four heuristic solvers on p; TM_R draws from a stream
// seeded by the target, so every caller draws the same sequence.
func solveAll(p *Problem) [4]Result {
	var out [4]Result
	out[0], _ = Progressive(p)
	out[1], _ = Game(p)
	out[2], _ = Smallest(p)
	out[3], _ = Random(p, rand.New(rand.NewSource(int64(p.Target))))
	return out
}

// TestModulesSharedConcurrently solves the Problems of many targets over one
// shared module list from several goroutines at once, with all four
// heuristic solvers, and requires the results a fresh NewProblem per target
// gives. Under -race this also shows the solvers only read the list.
func TestModulesSharedConcurrently(t *testing.T) {
	d, err := workload.RealMonero(1)
	if err != nil {
		t.Fatal(err)
	}
	supers, fresh := Decompose(d.Rings(), d.Universe)
	origin := d.Origin()
	req := diversity.Requirement{C: 1, L: 5}.WithHeadroom()
	rng := rand.New(rand.NewSource(9))
	targets := make([]chain.TokenID, 32)
	want := make([][4]Result, len(targets))
	solved := 0
	for i := range targets {
		targets[i] = d.Universe[rng.Intn(len(d.Universe))]
		p, err := NewProblem(targets[i], supers, fresh, origin, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = solveAll(p)
		if want[i][0].Size() > 0 {
			solved++
		}
	}
	if solved < len(targets)/2 {
		t.Fatalf("only %d of %d targets solvable; the instance exercises little", solved, len(targets))
	}

	ms := NewModules(supers, fresh, origin)
	got := make([][4]Result, len(targets))
	errs := make([]error, len(targets))
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(targets); i += workers {
				p, err := ms.Problem(targets[i], req)
				if err != nil {
					errs[i] = err
					continue
				}
				got[i] = solveAll(p)
			}
		}()
	}
	wg.Wait()
	for i := range targets {
		if errs[i] != nil {
			t.Fatalf("target %v: %v", targets[i], errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("target %v: shared-list results %+v, fresh NewProblem %+v", targets[i], got[i], want[i])
		}
	}
}

// TestModulesOrderAndFootprints checks the list layout the solvers' tie-breaks
// depend on: super rings in decomposition order, then fresh tokens, each
// with the HT footprint of its tokens.
func TestModulesOrderAndFootprints(t *testing.T) {
	origin := originOf(map[chain.TokenID]chain.TxID{1: 10, 2: 10, 3: 11, 4: 12, 5: 12, 6: 13})
	rings := []chain.RingRecord{rec(0, 1, 2, 3), rec(1, 4, 5)}
	supers, fresh := Decompose(rings, chain.NewTokenSet(1, 2, 3, 4, 5, 6))
	ms := NewModules(supers, fresh, origin)
	if len(ms.list) != 3 {
		t.Fatalf("%d modules, want 3", len(ms.list))
	}
	wantFP := []footprint{
		{txs: []chain.TxID{10, 11}, ns: []int{2, 1}},
		{txs: []chain.TxID{12}, ns: []int{2}},
		{txs: []chain.TxID{13}, ns: []int{1}},
	}
	if !reflect.DeepEqual(ms.fps, wantFP) {
		t.Fatalf("footprints %+v, want %+v", ms.fps, wantFP)
	}
	if ms.list[0].Super != 0 || ms.list[1].Super != 1 || !ms.list[2].Fresh {
		t.Fatalf("module order %+v", ms.list)
	}
	p, err := ms.Problem(4, diversity.Requirement{C: 1, L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.mand != 1 || !p.Mandatory.Tokens.Equal(chain.NewTokenSet(4, 5)) {
		t.Fatalf("mandatory %d %+v", p.mand, p.Mandatory)
	}
	if c := p.Candidates(); len(c) != 2 || c[0].Super != 0 || !c[1].Fresh {
		t.Fatalf("candidates %+v", c)
	}
}
