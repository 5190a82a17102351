package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// loopStats is what a load loop saw. Every op is recorded in completion
// order with its start and raw duration, a failed op as opTimeout: a miss
// of any latency limit. scale then fills lat.
type loopStats struct {
	mu                sync.Mutex
	attempted, failed int
	firstErr          error
	start             []time.Time
	raw               []time.Duration
	lat               []time.Duration // raw, scaled by the probes around each op
	wall              time.Duration
}

func (st *loopStats) record(start time.Time, d time.Duration, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	if err != nil {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
		d = opTimeout
	}
	st.start = append(st.start, start)
	st.raw = append(st.raw, d)
}

// scale sets lat from the raw durations and the probes sl made, and
// returns the sums of the raw and the scaled durations.
func (st *loopStats) scale(sl *speedLog) (raw, scaled time.Duration) {
	st.lat = make([]time.Duration, len(st.raw))
	for i, d := range st.raw {
		st.lat[i] = sl.scale(st.start[i], d)
		raw += d
		scaled += st.lat[i]
	}
	return raw, scaled
}

// closedLoop runs op back to back on workers goroutines for d, timing
// each op from its start. After each op a worker calls after, when it is
// not nil, untimed; the first worker probes sl between ops.
func closedLoop(d time.Duration, workers int, sl *speedLog, op func() error, after func()) *loopStats {
	st := &loopStats{}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	sl.probe()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if w == 0 && sl.due() {
					sl.probe()
				}
				t := time.Now()
				err := op()
				st.record(t, time.Since(t), err)
				if after != nil {
					after()
				}
			}
		}(w)
	}
	wg.Wait()
	sl.probe()
	st.wall = time.Since(start)
	return st
}

// openLoopStats adds what the open-loop generator saw of itself.
type openLoopStats struct {
	*loopStats
	lateP99     float64 // ms an arrival started after it was due, p99
	inflightMax int     // arrivals due but not completed, at most, sampled at each start
}

// openLoop offers n arrivals at rate per second, whether or not earlier
// ones have completed, through at most senders concurrent senders. Each
// arrival is timed from its due time, so a stall counts against every
// arrival that waited behind it, and the generator reports how late it
// started arrivals. The first sender probes sl while it waits for an
// arrival that is due after the probe would end.
func openLoop(rate float64, n, senders int, sl *speedLog, op func() error) openLoopStats {
	st := openLoopStats{loopStats: &loopStats{}}
	var (
		mu        sync.Mutex
		late      []time.Duration
		next      atomic.Int64
		completed atomic.Int64
		wg        sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / rate)
	sl.probe()
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if w == 0 && sl.due() && time.Until(due) > 2*probeRef {
					sl.probe()
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				began := time.Now()
				inflight := min(n, int(began.Sub(start)/interval)+1) - int(completed.Load())
				err := op()
				st.record(due, time.Since(due), err)
				completed.Add(1)
				mu.Lock()
				late = append(late, began.Sub(due))
				st.inflightMax = max(st.inflightMax, inflight)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sl.probe()
	st.wall = time.Since(start)
	if lateMs := sortedMs(late); len(lateMs) > 0 {
		st.lateP99 = lateMs[(len(lateMs)*99+99)/100-1]
	}
	return st
}
