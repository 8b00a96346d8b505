package main

import (
	"net/http"
	"sort"
	"strconv"
	"sync"

	"tokenmagic/internal/obs/trace"
)

// seqHeader carries the client's request number, so a server-side trace can
// be joined with the client-side latency of the same request.
const seqHeader = "X-Perfbench-Seq"

// traceSink roots one trace per request and keeps it. Each request gets a
// private collector: the program's collector keeps only its 32 most recent
// traces, and this one must keep every request of a round.
//
// The wrapper sits outside nodesvc's own middleware. The benchmark turns
// the program's default collector off, so that middleware roots no trace of
// its own and every span the program emits below it (queue-wait, sample,
// candidate, solve, sign, verify-sig, verify-batch, verify, commit) lands in
// the trace rooted here.
type traceSink struct {
	mu   sync.Mutex
	cols map[int]*trace.Collector
}

func newTraceSink() *traceSink { return &traceSink{cols: make(map[int]*trace.Collector)} }

func (s *traceSink) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		c := trace.NewCollector()
		ctx, tr := trace.New(r.Context(), c, r.URL.Path)
		next.ServeHTTP(w, r.WithContext(ctx))
		tr.Finish("done")
		s.mu.Lock()
		s.cols[seq] = c
		s.mu.Unlock()
	})
}

// traces exports every kept trace by request number.
func (s *traceSink) traces() map[int]trace.TraceJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]trace.TraceJSON, len(s.cols))
	for seq, c := range s.cols {
		out[seq] = only(c)
	}
	return out
}

// only returns the single trace a private collector holds.
func only(c *trace.Collector) trace.TraceJSON {
	if rec := c.Snapshot("", 1).Recent; len(rec) > 0 {
		return rec[0]
	}
	return trace.TraceJSON{}
}

// spanAgg folds traces into per-span-name totals: duration, self time (the
// span's duration minus the union of its children's intervals), count and
// integer annotations, plus the share of wall time no top-level span covers.
type spanAgg struct {
	wallUS         int64
	unattributedUS int64
	dropped        int
	count          map[string]int64
	durUS          map[string]int64
	selfUS         map[string]int64
	ann            map[string]int64 // "<span>.<key>" → sum
}

func newSpanAgg() *spanAgg {
	return &spanAgg{
		count:  make(map[string]int64),
		durUS:  make(map[string]int64),
		selfUS: make(map[string]int64),
		ann:    make(map[string]int64),
	}
}

type interval struct{ lo, hi int64 }

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func (a *spanAgg) add(t trace.TraceJSON) {
	a.wallUS += t.DurUS
	a.dropped += t.Dropped
	children := make(map[int32][]interval)
	for _, sp := range t.Spans {
		if sp.DurUS >= 0 {
			children[sp.Parent] = append(children[sp.Parent], interval{sp.StartUS, sp.StartUS + sp.DurUS})
		}
	}
	a.unattributedUS += t.DurUS - covered(children[-1], 0, t.DurUS)
	for i, sp := range t.Spans {
		if sp.DurUS < 0 {
			continue
		}
		end := sp.StartUS + sp.DurUS
		a.count[sp.Name]++
		a.durUS[sp.Name] += sp.DurUS
		a.selfUS[sp.Name] += sp.DurUS - covered(children[int32(i)], sp.StartUS, end)
		for k, v := range sp.Annotations {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				a.ann[sp.Name+"."+k] += n
			}
		}
	}
}

// merge folds b's span totals into a.
func (a *spanAgg) merge(b *spanAgg) {
	a.wallUS += b.wallUS
	a.unattributedUS += b.unattributedUS
	a.dropped += b.dropped
	for k, v := range b.count {
		a.count[k] += v
	}
	for k, v := range b.durUS {
		a.durUS[k] += v
	}
	for k, v := range b.selfUS {
		a.selfUS[k] += v
	}
	for k, v := range b.ann {
		a.ann[k] += v
	}
}

// meanUS is the mean duration of the named span (0 when it never ran).
func (a *spanAgg) meanUS(name string) float64 {
	return ratio(float64(a.durUS[name]), float64(a.count[name]))
}

// meanSelfUS is the mean self time of the named span.
func (a *spanAgg) meanSelfUS(name string) float64 {
	return ratio(float64(a.selfUS[name]), float64(a.count[name]))
}

func (a *spanAgg) unattributedFrac() float64 {
	return ratio(float64(a.unattributedUS), float64(a.wallUS))
}
