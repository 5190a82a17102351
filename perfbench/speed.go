package main

import (
	"sort"
	"time"
)

// The benchmark runs on shared machines whose speed changes under it: on
// the 2-vCPU VM it was written on, one CPU-bound loop took anywhere from
// its quiet time to 1.6 times that, in stretches of seconds to minutes,
// and the guest saw no steal time, so CPU time grew with wall time. Ten
// runs of the same code then spread by a third. So every loop also runs a
// fixed probe between its ops, and every end-to-end time is scaled by
// probeRef over the probe's median duration around it: a reported
// millisecond is a millisecond on a machine that runs the probe in
// probeRef. The per-layer span times are left as measured.

// probeRef is the probe's duration on the quiet reference machine, a
// 2-vCPU Intel Xeon VM (Go 1.24, GOMAXPROCS 1).
const probeRef = 2 * time.Millisecond

// probeEvery is how long a loop runs ops, at most, between two probes.
const probeEvery = 50 * time.Millisecond

// probeWindow is how far from an op the probes that scale it may lie.
const probeWindow = 500 * time.Millisecond

// probeTable is the probe's working set: 64 KiB, cache-resident.
var probeTable [8192]uint64

// probeSink keeps the probe's result live.
var probeSink uint64

// probeWork is a fixed amount of integer and cache work.
func probeWork() {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < probeIters; i++ {
		j := x & (uint64(len(probeTable)) - 1)
		x ^= probeTable[j] + x<<13
		x ^= x >> 7
		x ^= x << 17
		probeTable[j] = x
	}
	probeSink += x
}

// probeIters makes probeWork take about probeRef on the reference machine.
const probeIters = 400_000

// speedLog is the probes a run made. A nil *speedLog probes nothing and
// scales nothing.
type speedLog struct {
	at   []time.Time // when each probe started
	dur  []time.Duration
	cpu  time.Duration // process CPU time the probes took
	last time.Time
}

// probe runs the probe once and records how long it took.
func (sl *speedLog) probe() {
	if sl == nil {
		return
	}
	c0 := cpuTime()
	start := time.Now()
	probeWork()
	end := time.Now()
	sl.cpu += cpuTime() - c0
	sl.at = append(sl.at, start)
	sl.dur = append(sl.dur, end.Sub(start))
	sl.last = end
}

// burst probes five times, so one probe that the host stalled cannot
// set the scale of the ops next to it.
func (sl *speedLog) burst() {
	for i := 0; i < 5; i++ {
		sl.probe()
	}
}

// due reports whether probeEvery has passed since the last probe.
func (sl *speedLog) due() bool {
	return sl != nil && time.Since(sl.last) >= probeEvery
}

// factor is the scale of something that ran from start to end: probeRef
// over the median probe within probeWindow of it, or over the nearest
// probes when none is that close. It is 1 without probes.
func (sl *speedLog) factor(start, end time.Time) float64 {
	if sl == nil || len(sl.dur) == 0 {
		return 1
	}
	lo := sort.Search(len(sl.at), func(i int) bool { return !sl.at[i].Before(start.Add(-probeWindow)) })
	hi := sort.Search(len(sl.at), func(i int) bool { return sl.at[i].After(end.Add(probeWindow)) })
	if hi-lo < 3 {
		// The three probes around the op's start.
		i := sort.Search(len(sl.at), func(i int) bool { return !sl.at[i].Before(start) })
		lo = max(0, min(i-1, len(sl.at)-3))
		hi = min(len(sl.at), lo+3)
	}
	ms := sortedMs(sl.dur[lo:hi])
	return float64(probeRef) / 1e6 / median(ms)
}

// scale is d, which ran from start, scaled to the reference machine.
func (sl *speedLog) scale(start time.Time, d time.Duration) time.Duration {
	return time.Duration(float64(d) * sl.factor(start, start.Add(d)))
}
