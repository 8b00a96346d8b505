package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tokenmagic/internal/analysis"
	"tokenmagic/internal/analysis/cfg"
	"tokenmagic/internal/analysis/dataflow"
)

// Lockcheck enforces the lock discipline of the hot paths (the framework's
// write and rng mutexes, the batchsvc RWMutex, the obs registry): every
// Lock/RLock must be released on every path to the function's exit, read
// locks must not be upgraded in place, and mutexes must not be copied by
// value.
//
// Release coverage is path-sensitive over the per-function CFG: an inline
// Unlock clears the hold only on the paths through it, a defer counts only
// on the paths that reach its declaration (a defer inside a loop body does
// NOT cover the zero-iteration path), and a call to a module-local helper
// counts as a release only when the dataflow net-release summary proves the
// helper releases the same lock on every one of ITS paths — a conditional
// Unlock in a callee is reported instead of silently trusted. Checks:
//
//  1. an acquire with no release of any kind (inline, helper, or defer)
//     anywhere in the function;
//  2. a return statement reachable while the lock is held and no deferred
//     release is registered on that path;
//  3. a path that falls off the end of the function still holding the lock
//     (e.g. the release or defer sits inside a branch or loop body);
//  4. a call to a helper that releases the held lock only on some of its
//     paths;
//  5. an RLock followed by a Lock on the same mutex with no intervening
//     RUnlock — the classic RWMutex self-deadlocking upgrade;
//  6. a sync.Mutex / sync.RWMutex received or returned by value.
var Lockcheck = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "Lock/RLock released on every path (CFG-based, helper-release " +
		"aware), no in-place RWMutex upgrades, no mutexes copied by value",
	Run: runLockcheck,
}

type lockEventKind int

const (
	evLock lockEventKind = iota
	evUnlock
	evRLock
	evRUnlock
)

type lockEvent struct {
	kind lockEventKind
	pos  token.Pos
}

// lockMethods maps method names to event kinds.
var lockMethods = map[string]lockEventKind{
	"Lock":    evLock,
	"Unlock":  evUnlock,
	"RLock":   evRLock,
	"RUnlock": evRUnlock,
}

// isMutexMethod reports whether the call selects one of sync's locking
// methods (directly, through an embedded mutex, or via sync.Locker). The
// returned key is the receiver's source form; recv is the receiver
// expression itself, for cross-function lock identity resolution.
func isMutexMethod(info *types.Info, call *ast.CallExpr) (key string, recv ast.Expr, kind lockEventKind, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, 0, false
	}
	kind, named := lockMethods[sel.Sel.Name]
	if !named {
		return "", nil, 0, false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", nil, 0, false
	}
	full := fn.FullName()
	if !strings.HasPrefix(full, "(*sync.Mutex).") &&
		!strings.HasPrefix(full, "(*sync.RWMutex).") &&
		!strings.HasPrefix(full, "(sync.Locker).") {
		return "", nil, 0, false
	}
	return types.ExprString(sel.X), sel.X, kind, true
}

func runLockcheck(pass *analysis.Pass) error {
	prog, err := dataflow.Get(pass)
	if err != nil {
		return err
	}
	for _, f := range pass.Files {
		checkMutexByValue(pass, f)
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			checkLockPairing(pass, prog, name, body)
		})
	}
	return nil
}

// checkMutexByValue flags sync.Mutex/RWMutex in by-value parameter or
// result positions (go vet's copylocks catches assignments; this catches
// the signatures that invite them).
func checkMutexByValue(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		ft, ok := n.(*ast.FuncType)
		if !ok {
			return true
		}
		check := func(fl *ast.FieldList, what string) {
			if fl == nil {
				return
			}
			for _, field := range fl.List {
				t := pass.Info.TypeOf(field.Type)
				if t == nil {
					continue
				}
				if named, ok := t.(*types.Named); ok {
					obj := named.Obj()
					if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
						(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
						pass.Reportf(field.Pos(), "sync.%s %s by value copies the lock: use a pointer", obj.Name(), what)
					}
				}
			}
		}
		check(ft.Params, "passed")
		check(ft.Results, "returned")
		return true
	})
}

// checkLockPairing runs the per-mutex checks over one function body (nested
// function literals are separate scopes): the linear source-order upgrade
// scan, plus the CFG path analysis per acquire/release verb pair.
func checkLockPairing(pass *analysis.Pass, prog *dataflow.Program, name string, body *ast.BlockStmt) {
	events := make(map[string][]lockEvent) // mutex expr → ordered non-deferred events
	recvs := make(map[string]ast.Expr)     // mutex expr → receiver expression
	var keys []string                      // first-seen order for deterministic reports

	record := func(key string, recv ast.Expr, ev lockEvent) {
		if _, seen := events[key]; !seen {
			keys = append(keys, key)
			recvs[key] = recv
		}
		events[key] = append(events[key], ev)
	}

	walkShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// Deferred releases run at exit, not in source order; the CFG
			// analysis accounts for them path-sensitively.
			return false
		case *ast.CallExpr:
			if key, recv, kind, ok := isMutexMethod(pass.Info, n); ok {
				record(key, recv, lockEvent{kind: kind, pos: n.Pos()})
			}
		}
		return true
	})
	if len(keys) == 0 {
		return
	}

	g := cfg.New(body)
	for _, key := range keys {
		id := dataflow.LockIdentity(pass.Info, recvs[key])
		for _, pair := range [...]struct {
			acq, rel         lockEventKind
			acqName, relName string
		}{
			{evLock, evUnlock, "Lock", "Unlock"},
			{evRLock, evRUnlock, "RLock", "RUnlock"},
		} {
			c := &pairChecker{
				pass: pass, prog: prog, fn: name, key: key, id: id,
				acq: pair.acq, rel: pair.rel,
				acqName: pair.acqName, relName: pair.relName,
			}
			c.run(g)
		}
		checkUpgrade(pass, key, events[key])
	}
}

// lcEffectKind classifies how one statement affects a (mutex, verb pair).
type lcEffectKind int

const (
	effAcquire      lcEffectKind = iota
	effRelease                   // inline release, or unconditional helper release
	effDeferRelease              // deferred release registered on this path
	effCondHelper                // helper releasing only on some of ITS paths
	effReturn
)

type lcEffect struct {
	kind   lcEffectKind
	pos    token.Pos
	helper string // callee name, for effCondHelper
}

// lcState is the per-path state: the position of the outstanding acquire
// (NoPos when the lock is not held) and whether a deferred release is
// registered on this path.
type lcState struct {
	acquiredAt token.Pos
	covered    bool
}

// pairChecker runs the path-sensitive release-coverage analysis for one
// mutex and one acquire/release verb pair.
type pairChecker struct {
	pass     *analysis.Pass
	prog     *dataflow.Program
	fn       string
	key      string
	id       string // cross-function lock identity; "" for locals
	acq, rel lockEventKind
	acqName  string
	relName  string

	effects      map[ast.Stmt][]lcEffect
	hasAcquire   bool
	hasRelease   bool // inline, helper (uncond or cond) — any release-shaped event
	hasDefer     bool
	firstAcquire token.Pos

	reported map[string]bool
}

func (c *pairChecker) run(g *cfg.Graph) {
	c.effects = make(map[ast.Stmt][]lcEffect)
	c.reported = make(map[string]bool)
	for _, b := range g.Blocks {
		for _, stmt := range b.Stmts {
			if effs := c.extract(stmt); len(effs) > 0 {
				c.effects[stmt] = effs
			}
		}
	}
	if !c.hasAcquire {
		return
	}
	if !c.hasRelease && !c.hasDefer {
		c.pass.Reportf(c.firstAcquire, "%s: %s.%s() is never released in %s (no %s, no defer)",
			c.fn, c.key, c.acqName, c.fn, c.relName)
		return
	}

	// Forward fixpoint: the set of lcStates reaching each block. The state
	// space per pair is tiny (acquire sites × covered flag), so a simple
	// worklist converges quickly.
	in := make(map[*cfg.Block]map[lcState]bool)
	in[g.Entry] = map[lcState]bool{{}: true}
	work := []*cfg.Block{g.Entry}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		out := make(map[lcState]bool)
		for s := range in[b] {
			out[c.applyBlock(b, s, nil)] = true
		}
		for _, succ := range b.Succs {
			if in[succ] == nil {
				in[succ] = make(map[lcState]bool)
			}
			changed := false
			for s := range out {
				if !in[succ][s] {
					in[succ][s] = true
					changed = true
				}
			}
			if changed {
				work = append(work, succ)
			}
		}
	}

	// Reporting pass over the converged states, deterministic in block and
	// state order. Leaks fall into three shapes: a return while held with no
	// covering defer, a conditional helper release, and a fall-off-the-end
	// path still holding the lock.
	for _, b := range g.Blocks {
		if len(in[b]) == 0 {
			continue // unreachable
		}
		for _, s := range sortedStates(in[b]) {
			out := c.applyBlock(b, s, c.emit)
			if !exitsByFalling(b, g) {
				continue
			}
			if out.acquiredAt != token.NoPos && !out.covered {
				c.reportf(out.acquiredAt, "%s: %s.%s() is not released on every path in %s (release it before every return or defer it at the acquire)",
					c.fn, c.key, c.acqName, c.fn)
			}
		}
	}
}

// applyBlock folds the block's statement effects into the path state; emit
// (when non-nil) fires for leak-shaped effects.
func (c *pairChecker) applyBlock(b *cfg.Block, s lcState, emit func(lcEffect, lcState)) lcState {
	for _, stmt := range b.Stmts {
		for _, e := range c.effects[stmt] {
			switch e.kind {
			case effAcquire:
				s.acquiredAt = e.pos
			case effRelease:
				s = lcState{}
			case effDeferRelease:
				s.covered = true
			case effCondHelper:
				if s.acquiredAt != token.NoPos && !s.covered {
					if emit != nil {
						emit(e, s)
					}
					// Treat as released afterwards so one conditional helper
					// does not cascade into return/fall-off reports too.
					s = lcState{}
				}
			case effReturn:
				if s.acquiredAt != token.NoPos && !s.covered {
					if emit != nil {
						emit(e, s)
					}
				}
			}
		}
	}
	return s
}

func (c *pairChecker) emit(e lcEffect, s lcState) {
	switch e.kind {
	case effReturn:
		c.reportf(e.pos, "return while %s is held by %s() above (no defer %s.%s())",
			c.key, c.acqName, c.key, c.relName)
	case effCondHelper:
		c.reportf(e.pos, "call to %s while %s is held: %s releases it only on some of its paths (a conditional release in a callee does not cover every path)",
			e.helper, c.key, e.helper)
	}
}

// reportf deduplicates: the fixpoint can reach the same leak through several
// states, but each (position, message) is one finding.
func (c *pairChecker) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	dkey := fmt.Sprintf("%d:%s", pos, msg)
	if c.reported[dkey] {
		return
	}
	c.reported[dkey] = true
	c.pass.Reportf(pos, "%s", msg)
}

// extract computes the ordered pair-relevant effects of one statement.
// Nested function literals are separate scopes and contribute nothing.
func (c *pairChecker) extract(stmt ast.Stmt) []lcEffect {
	var effs []lcEffect
	if d, ok := stmt.(*ast.DeferStmt); ok {
		if key, _, kind, ok := isMutexMethod(c.pass.Info, d.Call); ok {
			if key == c.key && kind == c.rel {
				c.hasDefer = true
				effs = append(effs, lcEffect{kind: effDeferRelease, pos: d.Pos()})
			}
			return effs
		}
		if uncond, _, _ := c.helperRelease(d.Call); uncond {
			c.hasDefer = true
			effs = append(effs, lcEffect{kind: effDeferRelease, pos: d.Pos()})
		}
		return effs
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, _, kind, ok := isMutexMethod(c.pass.Info, call); ok {
			if key != c.key {
				return true
			}
			switch kind {
			case c.acq:
				c.hasAcquire = true
				if c.firstAcquire == token.NoPos || call.Pos() < c.firstAcquire {
					c.firstAcquire = call.Pos()
				}
				effs = append(effs, lcEffect{kind: effAcquire, pos: call.Pos()})
			case c.rel:
				c.hasRelease = true
				effs = append(effs, lcEffect{kind: effRelease, pos: call.Pos()})
			}
			return true
		}
		switch uncond, cond, name := c.helperRelease(call); {
		case uncond:
			c.hasRelease = true
			effs = append(effs, lcEffect{kind: effRelease, pos: call.Pos()})
		case cond:
			c.hasRelease = true
			effs = append(effs, lcEffect{kind: effCondHelper, pos: call.Pos(), helper: name})
		}
		return true
	})
	if ret, ok := stmt.(*ast.ReturnStmt); ok {
		effs = append(effs, lcEffect{kind: effReturn, pos: ret.Pos()})
	}
	return effs
}

// helperRelease consults the dataflow net-release summary: does this call
// release the checker's lock, and on every one of the callee's paths or only
// some? Identity-less locals and non-module callees resolve to (false, false).
func (c *pairChecker) helperRelease(call *ast.CallExpr) (uncond, cond bool, name string) {
	if c.prog == nil || c.id == "" {
		return false, false, ""
	}
	callee := dataflow.CalleeOf(c.pass.Info, call)
	if callee == nil {
		return false, false, ""
	}
	nr := c.prog.NetReleasesOf(callee)
	if nr == nil {
		return false, false, ""
	}
	want := dataflow.OpUnlock
	if c.rel == evRUnlock {
		want = dataflow.OpRUnlock
	}
	if op, ok := nr.Uncond[c.id]; ok && op == want {
		return true, false, callee.Name()
	}
	if op, ok := nr.Cond[c.id]; ok && op == want {
		return false, true, callee.Name()
	}
	return false, false, ""
}

// exitsByFalling reports whether b reaches Exit other than through a return
// statement — falling off the end of the function (or an unresolved goto).
func exitsByFalling(b *cfg.Block, g *cfg.Graph) bool {
	toExit := false
	for _, s := range b.Succs {
		if s == g.Exit {
			toExit = true
			break
		}
	}
	if !toExit {
		return false
	}
	if n := len(b.Stmts); n > 0 {
		if _, isRet := b.Stmts[n-1].(*ast.ReturnStmt); isRet {
			return false
		}
	}
	return true
}

func sortedStates(set map[lcState]bool) []lcState {
	out := make([]lcState, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].acquiredAt != out[j].acquiredAt {
			return out[i].acquiredAt < out[j].acquiredAt
		}
		return !out[i].covered && out[j].covered
	})
	return out
}

// checkUpgrade flags RLock → Lock on the same mutex without an intervening
// RUnlock: sync.RWMutex is not upgradeable, so this self-deadlocks. A
// deferred RUnlock does not help — it runs after the Lock.
func checkUpgrade(pass *analysis.Pass, key string, evs []lockEvent) {
	for i, ev := range evs {
		if ev.kind != evRLock {
			continue
		}
		for _, later := range evs[i+1:] {
			if later.kind == evRUnlock {
				break
			}
			if later.kind == evLock {
				pass.Reportf(later.pos, "%s.Lock() while the read lock from %s.RLock() is still held: RWMutex cannot be upgraded (self-deadlock)",
					key, key)
				return
			}
		}
	}
}
