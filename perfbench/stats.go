package main

import (
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, 0 when den is 0 (a layer the workload never reaches).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// memLevel samples the memory the Go runtime holds from the operating
// system (mapped and not released: the process's resident heap, stacks and
// runtime structures) every 2 ms between startMemLevel and stop, and stop
// returns the 99th percentile of the samples in MiB. The maximum would be
// the garbage collector's: a collection that lands while two spends hold
// their working sets sets the next heap goal high for a few milliseconds,
// which moved one round's maximum between 17 and 38 MiB at λ=800 while the
// 99th percentile stayed within 17–20. startMemLevel first collects and
// returns freed memory to the system, so one round's level does not carry
// into the next.
type memLevel struct {
	done  chan struct{}
	level chan float64
}

var memSamples = []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}

func heldMiB() float64 {
	metrics.Read(memSamples)
	return float64(memSamples[0].Value.Uint64()-memSamples[1].Value.Uint64()) / (1 << 20)
}

func startMemLevel() *memLevel {
	debug.FreeOSMemory()
	m := &memLevel{done: make(chan struct{}), level: make(chan float64)}
	go func() {
		xs := []float64{heldMiB()}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.done:
				m.level <- quantile(append(xs, heldMiB()), 0.99)
				return
			case <-tick.C:
				xs = append(xs, heldMiB())
			}
		}
	}()
	return m
}

// stop ends the sampling and returns the level.
func (m *memLevel) stop() float64 {
	close(m.done)
	return <-m.level
}
