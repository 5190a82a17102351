package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Add(4)
	if got := r.Counter("a").Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.Snapshot().Counters["a"]; got != 5 {
		t.Fatalf("snapshot counter = %d, want 5", got)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Histogram("y").Observe(time.Millisecond)
	r.Observe("z", time.Now())
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestHistogramStats(t *testing.T) {
	h := newHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MinNanos != uint64(time.Microsecond) {
		t.Fatalf("min = %d", s.MinNanos)
	}
	if s.MaxNanos != uint64(1000*time.Microsecond) {
		t.Fatalf("max = %d", s.MaxNanos)
	}
	// Power-of-two buckets: the median must land within a factor of 2 of
	// the true 500µs, and quantiles must be monotone.
	p50 := s.Quantile(0.5)
	if p50 < 250*time.Microsecond || p50 > 1000*time.Microsecond {
		t.Fatalf("p50 = %v, want within [250µs, 1ms]", p50)
	}
	if s.P50Nanos > s.P90Nanos || s.P90Nanos > s.P99Nanos {
		t.Fatalf("quantiles not monotone: %d %d %d", s.P50Nanos, s.P90Nanos, s.P99Nanos)
	}
	if s.Quantile(0) < time.Duration(s.MinNanos) || s.Quantile(1) > time.Duration(s.MaxNanos) {
		t.Fatalf("quantile range outside observed range")
	}
	if mean := s.Mean(); mean < 400*time.Microsecond || mean > 600*time.Microsecond {
		t.Fatalf("mean = %v, want ~500µs", mean)
	}
}

// TestHistogramQuantilesLowInBucket: samples that sit low in one wide
// power-of-two bucket keep distinct quantiles below the max, and the
// median lands near the true one.
func TestHistogramQuantilesLowInBucket(t *testing.T) {
	for _, tc := range []struct{ lo, step time.Duration }{
		{2600 * time.Millisecond, time.Millisecond},     // 2.600–2.699 s
		{1100 * time.Microsecond, 3 * time.Microsecond}, // 1.100–1.397 ms
	} {
		h := newHistogram()
		for i := 0; i < 100; i++ {
			h.Observe(tc.lo + time.Duration(i)*tc.step)
		}
		s := h.Snapshot()
		if !(s.P50Nanos < s.P90Nanos && s.P90Nanos < s.P99Nanos && s.P99Nanos <= s.MaxNanos) {
			t.Errorf("%v..%v: p50 %d, p90 %d, p99 %d, max %d; want p50 < p90 < p99 <= max",
				tc.lo, tc.lo+99*tc.step, s.P50Nanos, s.P90Nanos, s.P99Nanos, s.MaxNanos)
		}
		median := float64(tc.lo + 99*tc.step/2)
		if d := math.Abs(float64(s.P50Nanos) - median); d > 0.01*median {
			t.Errorf("%v..%v: p50 %d, true median %.0f", tc.lo, tc.lo+99*tc.step, s.P50Nanos, median)
		}
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	h := newHistogram()
	h.Observe(0)
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 2 || s.MinNanos != 0 || s.MaxNanos != 0 {
		t.Fatalf("bad zero stats: %+v", s)
	}
	if s.Quantile(0.99) != 0 {
		t.Fatalf("quantile of zeros = %v", s.Quantile(0.99))
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.sessions").Add(3)
	r.Histogram("server.attest_ns").Observe(2 * time.Millisecond)
	blob, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["server.sessions"] != 3 {
		t.Fatalf("round trip lost counter: %s", blob)
	}
	if back.Histograms["server.attest_ns"].Count != 1 {
		t.Fatalf("round trip lost histogram: %s", blob)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(time.Duration(j) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
