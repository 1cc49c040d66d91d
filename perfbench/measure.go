package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// samples is a list of measurements of one quantity.
type samples []float64

// pct returns the nearest-rank p-quantile (0 < p ≤ 1); 0 when empty.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	k := int(math.Ceil(p*float64(len(c)))) - 1
	return c[max(0, min(k, len(c)-1))]
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 when empty.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the CPU time (user and system) the process has used,
// all its threads together. The operation costs the benchmark gates are
// CPU-time deltas, not wall-clock ones: on a shared virtual machine the
// wall clock also counts the time the host does not run the vCPU (steal),
// which comes in bursts and moved the medians of whole runs of one build
// by half and more, while the CPU time of the same jobs stayed within a
// few percent.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF with a valid buffer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtime/metrics keys read around public calls.
const (
	keyGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	keyHeapLive = "/gc/heap/live:bytes"
)

// rtStats is a snapshot of the process counters a layer's cost is read
// from: heap objects allocated and GC CPU time.
type rtStats struct {
	allocs float64
	gcCPU  float64
}

// readRT takes the snapshot. The allocation count comes from
// runtime.ReadMemStats, which flushes the per-P caches and so is exact
// for short calls; it stops the world briefly, so only traced runs use
// it.
func readRT() rtStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: keyGCCPU}}
	metrics.Read(s)
	return rtStats{allocs: float64(m.Mallocs), gcCPU: s[0].Value.Float64()}
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{allocs: a.allocs - b.allocs, gcCPU: a.gcCPU - b.gcCPU}
}

// heapSampler tracks the largest live heap (as of the latest GC cycle)
// seen while it runs, over the whole run and over the operation between
// begin and end.
type heapSampler struct {
	stop     chan struct{}
	done     sync.WaitGroup
	mu       sync.Mutex
	peak, op uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: keyHeapLive}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	h.mu.Lock()
	h.peak, h.op = max(h.peak, v), max(h.op, v)
	h.mu.Unlock()
}

// begin starts an operation's peak; call it after a collection.
func (h *heapSampler) begin() {
	h.mu.Lock()
	h.op = 0
	h.mu.Unlock()
	h.sample()
}

// end returns the peak live heap in MB since begin.
func (h *heapSampler) end() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.op) / 1e6
}

// stopMB stops the sampler and returns the peak live heap of the run in
// MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.done.Wait()
	h.sample()
	return float64(h.peak) / 1e6
}

// typicalPeak is the peak_heap_mb metric: the median over the
// operations of each kind of the peak live heap during one operation,
// for the kind where it is largest. The live heap is only known as of
// the latest collection, so the peak of a whole run depends on whether
// one collection happened to fall on an operation's high point: one run
// of ten of the same build read 22 MB against 13 MB for the others.
func typicalPeak(per [3]samples) float64 {
	return max(per[0].median(), per[1].median(), per[2].median())
}

// quiesce collects garbage left by earlier work so it is not charged to
// the next timed operation.
func quiesce() { runtime.GC() }
