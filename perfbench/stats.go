package main

import (
	"sort"
	"time"
)

// All timings are computed from the raw samples, never from bucketed
// histograms, whose power-of-two buckets blur a percentile across a 2x
// range.

// sortedMs returns the samples in milliseconds, ascending.
func sortedMs(samples []time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, d := range samples {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median of ascending values; 0 when there are none.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of the ascending values that has at
// least tailBeyond samples beyond it, and which percentile that is. With
// fewer than 2*tailBeyond+1 samples that percentile would fall below the
// median, so it returns the lower median instead.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := max(n-1-tailBeyond, (n-1)/2)
	return sorted[i], 100 * float64(i+1) / float64(n)
}

// tailWindow is the number of consecutive ops over which one tail is
// taken. Each window's tail is its p95; the median over windows keeps one
// rare stall from setting the whole run's tail.
const tailWindow = 200

// windowedTail splits the latencies, in completion order, into windows of
// tailWindow ops, takes each window's tail, and returns their median, the
// percentile taken and the number of windows. Ops past the last whole
// window are left out, so the percentile does not change with the op
// count. With fewer ops than one window it takes the tail of them all.
func windowedTail(lat []time.Duration) (value, pct float64, windows int) {
	if len(lat) < tailWindow {
		value, pct = tail(sortedMs(lat))
		return value, pct, 1
	}
	windows = len(lat) / tailWindow
	var tails []float64
	for w := 0; w < windows; w++ {
		v, p := tail(sortedMs(lat[w*tailWindow : (w+1)*tailWindow]))
		tails = append(tails, v)
		pct = p
	}
	sort.Float64s(tails)
	return median(tails), pct, windows
}

func medianDur(samples []time.Duration) time.Duration {
	return time.Duration(median(sortedMs(samples)) * 1e6)
}

// order is block number block of a seeded sequence: a permutation of
// [0, n). Every program appears once per block, so two seeds give the same
// mix of inputs in a different order, and the same seed and block always
// give the same permutation, whichever worker asks.
func order(seed int64, block, n int) []int {
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	for j := n - 1; j > 0; j-- {
		x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(block)*0xbf58476d1ce4e5b9 + uint64(j)*0x94d049bb133111eb
		x ^= x >> 31
		x *= 0xd6e8feb86659fd93
		x ^= x >> 32
		k := int(x % uint64(j+1))
		perm[j], perm[k] = perm[k], perm[j]
	}
	return perm
}

// pick is input i of the sequence the blocks of order make.
func pick(seed int64, i, n int) int { return order(seed, i/n, n)[i%n] }
