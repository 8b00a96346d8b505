package goldenfix

// deferredIncrement is the canonical shape: the deferred release covers
// every return path.
func (g *guarded) deferredIncrement() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
}

// readThenWrite drops the read lock before taking the write lock — the legal
// version of the upgrade.
func (g *guarded) readThenWrite() int {
	g.rw.RLock()
	n := g.n
	g.rw.RUnlock()

	g.rw.Lock()
	defer g.rw.Unlock()
	g.n = n + 1
	return g.n
}

// pairedInline releases in source order with a return after the release.
func (g *guarded) pairedInline() int {
	g.mu.Lock()
	n := g.n
	g.mu.Unlock()
	return n
}
