// Package obs is a zero-dependency observability layer for the SgxElide
// transport: named counters and latency histograms behind a Registry, with
// an exportable (JSON-marshalable) point-in-time Snapshot. It exists so the
// authentication server, the TCP client, and the untrusted runtime can
// answer "what is the transport doing" without pulling in a metrics
// framework.
//
// Everything is safe for concurrent use. Counters and histogram buckets are
// atomics; the registry map is guarded by a mutex taken only on first
// registration of a name.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can go up and down (active
// sessions, queue depth). Signed so decrements past zero are visible bugs
// rather than wraparounds.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two latency buckets. Bucket i
// counts observations d with 2^(i-1) ns <= d < 2^i ns (bucket 0 counts
// d == 0), which spans sub-nanosecond to ~584 years — no clamping needed.
const histBuckets = 64

// Histogram records a latency distribution in power-of-two buckets.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	min     atomic.Uint64 // nanoseconds; ^uint64(0) until first observation
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(^uint64(0))
	return h
}

// NewHistogram returns a standalone histogram, for callers aggregating
// outside a Registry. The zero Histogram is not valid (min tracking needs
// initialization); always construct through here or Registry.Histogram.
func NewHistogram() *Histogram { return newHistogram() }

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bits.Len64(ns)].Add(1)
}

// Snapshot captures the histogram state. The snapshot is internally
// consistent enough for reporting (buckets may trail count by in-flight
// observations, never the reverse, because count is added first).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sum.Load(),
		MaxNanos: h.max.Load(),
	}
	if min := h.min.Load(); min != ^uint64(0) {
		s.MinNanos = min
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{
				UpperNanos: bucketUpper(i),
				Count:      n,
			})
		}
	}
	s.P50Nanos = s.quantile(0.50)
	s.P90Nanos = s.quantile(0.90)
	s.P99Nanos = s.quantile(0.99)
	return s
}

// bucketUpper is the exclusive upper bound of bucket i in nanoseconds.
func bucketUpper(i int) uint64 {
	if i >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << i
}

// HistogramBucket is one populated power-of-two bucket.
type HistogramBucket struct {
	UpperNanos uint64 `json:"upper_nanos"` // exclusive upper bound
	Count      uint64 `json:"count"`
}

// HistogramSnapshot is an exportable view of a Histogram.
type HistogramSnapshot struct {
	Count    uint64            `json:"count"`
	SumNanos uint64            `json:"sum_nanos"`
	MinNanos uint64            `json:"min_nanos"`
	MaxNanos uint64            `json:"max_nanos"`
	P50Nanos uint64            `json:"p50_nanos"`
	P90Nanos uint64            `json:"p90_nanos"`
	P99Nanos uint64            `json:"p99_nanos"`
	Buckets  []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the mean observation.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Quantile returns the q-quantile (0 <= q <= 1), interpolated linearly
// inside the containing bucket's range clipped to the observed [Min, Max].
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	return time.Duration(s.quantile(q))
}

func (s HistogramSnapshot) quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for _, b := range s.Buckets {
		next := seen + float64(b.Count)
		if rank <= next || b == s.Buckets[len(s.Buckets)-1] {
			lower, upper := b.UpperNanos/2, b.UpperNanos
			if b.UpperNanos <= 1 {
				lower = 0
			}
			// No sample lies outside [Min, Max], so the first and last
			// populated buckets interpolate over the part they observed:
			// samples low in a wide bucket must not read as its top.
			lower = max(lower, s.MinNanos)
			upper = max(lower, min(upper, s.MaxNanos))
			frac := 0.0
			if b.Count > 0 {
				frac = (rank - seen) / float64(b.Count)
				if frac < 0 {
					frac = 0
				}
				if frac > 1 {
					frac = 1
				}
			}
			return lower + uint64(frac*float64(upper-lower))
		}
		seen = next
	}
	return s.MaxNanos
}

// Registry is a named collection of counters, gauges, and histograms.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Safe to call on a nil registry (returns a throwaway counter), so
// instrumented code does not need nil checks.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// Safe on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on
// first use. Safe on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return newHistogram()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// Observe is shorthand for Histogram(name).Observe(since now), for timing
// with defer: defer reg.Observe("attest_ns", time.Now()) — but without
// calling time.Now at defer-evaluation time the duration would be zero, so
// the start time is a parameter.
func (r *Registry) Observe(name string, start time.Time) {
	r.Histogram(name).Observe(time.Since(start))
}

// Snapshot is an exportable view of a whole registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric. Safe on a nil registry (returns an empty
// snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Load()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// String renders the snapshot as sorted "name value" lines — the format
// elide-server prints on shutdown.
func (s Snapshot) String() string {
	var names []string
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	out := ""
	for _, k := range names {
		out += fmt.Sprintf("%-32s %d\n", k, s.Counters[k])
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		out += fmt.Sprintf("%-32s %d\n", k, s.Gauges[k])
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		out += fmt.Sprintf("%-32s count=%d mean=%v p50=%v p90=%v p99=%v max=%v\n",
			k, h.Count, h.Mean(),
			time.Duration(h.P50Nanos), time.Duration(h.P90Nanos),
			time.Duration(h.P99Nanos), time.Duration(h.MaxNanos))
	}
	return out
}
