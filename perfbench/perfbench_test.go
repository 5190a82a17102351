package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"sgxelide/internal/bench"
	"sgxelide/internal/elide"
)

func TestMedianAndTail(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	if got := median(v); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if got := median(v[:5]); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	// 100 samples: the 90th value has exactly ten beyond it.
	if val, pct := tail(v); val != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", val, pct)
	}
	// 15 samples: ten beyond would fall below the median, so the tail is
	// the lower median.
	if val, pct := tail(v[:15]); val != 8 {
		t.Errorf("tail of 1..15 = %v at p%v, want 8", val, pct)
	}
}

func TestWindowedTailIgnoresOneStall(t *testing.T) {
	lat := make([]time.Duration, 2000)
	for i := range lat {
		lat[i] = time.Duration(1+i%200) * time.Millisecond
	}
	for i := 0; i < 20; i++ {
		lat[i] = time.Second // one burst of stalls, in the first window
	}
	val, pct, windows := windowedTail(lat)
	if windows != 10 || pct != 95 || val != 190 {
		t.Errorf("windowedTail = %v ms at p%v over %d windows, want 190 ms at p95 over 10", val, pct, windows)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past op
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 30, 20, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSeedGivesTheInputSequence(t *testing.T) {
	seq := func(seed int64) []int {
		var out []int
		for i := 0; i < 70; i++ {
			out = append(out, pick(seed, i, 7))
		}
		return out
	}
	a, b := seq(1), seq(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 1 gave two sequences:\n%v\n%v", a, b)
	}
	if c := seq(2); reflect.DeepEqual(a, c) {
		t.Fatalf("seeds 1 and 2 gave the same sequence %v", a)
	}
	// Every block of seven is a permutation, so every seed runs the same
	// mix of programs.
	for blk := 0; blk < 10; blk++ {
		got := append([]int(nil), a[blk*7:blk*7+7]...)
		sort.Ints(got)
		if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6}) {
			t.Fatalf("block %d is not a permutation: %v", blk, a[blk*7:blk*7+7])
		}
	}
	if reflect.DeepEqual(order(1, 0, 5), order(2, 0, 5)) && reflect.DeepEqual(order(1, 1, 5), order(2, 1, 5)) {
		t.Error("pass orders do not depend on the seed")
	}
}

func TestOpenLoopTimesArrivalsFromDueTime(t *testing.T) {
	calls := 0
	op := func() error {
		calls++
		if calls == 1 {
			time.Sleep(100 * time.Millisecond) // stalls the only sender
		}
		return nil
	}
	st := openLoop(100, 5, 1, nil, op)
	if st.attempted != 5 || st.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 5 and 0", st.attempted, st.failed)
	}
	// Arrival 4 was due at 40 ms and could not start before 100 ms: its
	// latency counts the wait.
	if last := st.raw[4]; last < 55*time.Millisecond {
		t.Errorf("arrival 4 latency %v, want at least 55ms of waiting behind the stall", last)
	}
	if st.lateP99 < 55 {
		t.Errorf("late p99 %.1f ms, want at least 55", st.lateP99)
	}
}

func TestSpeedLogScalesByNearbyProbes(t *testing.T) {
	t0 := time.Unix(0, 0)
	sl := &speedLog{}
	// The machine runs at half speed for the first ten seconds, then at
	// full speed; one stalled probe in each stretch must not matter.
	for i := 0; i < 200; i++ {
		d := 2 * probeRef
		if i >= 100 {
			d = probeRef
		}
		if i%10 == 3 {
			d *= 5
		}
		sl.at = append(sl.at, t0.Add(time.Duration(i)*100*time.Millisecond))
		sl.dur = append(sl.dur, d)
	}
	if got := sl.scale(t0.Add(3*time.Second), 40*time.Millisecond); got != 20*time.Millisecond {
		t.Errorf("op on the slow machine scaled to %v, want 20ms", got)
	}
	if got := sl.scale(t0.Add(15*time.Second), 40*time.Millisecond); got != 40*time.Millisecond {
		t.Errorf("op on the fast machine scaled to %v, want 40ms", got)
	}
	if got := (*speedLog)(nil).scale(t0, time.Second); got != time.Second {
		t.Errorf("nil speed log scaled 1s to %v", got)
	}
}

func TestBuildDeploymentMatchesBuildProtected(t *testing.T) {
	var m machineEnv
	if err := m.setupEnv(nil); err != nil {
		t.Fatal(err)
	}
	d, err := buildDeployment(nil, m.env, bench.Crackme)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bench.BuildProtected(m.env, bench.Crackme, elide.SanitizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.prot.Measurement != want.Measurement {
		t.Error("measurement differs from bench.BuildProtected's")
	}
	if !reflect.DeepEqual(d.prot.SecretData, want.SecretData) {
		t.Error("secret data differs from bench.BuildProtected's")
	}
}

// benchmarkJSON reads the metric lists BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wantE2E, wantLayer := benchmarkJSON(t)
	short := map[string]func() workload{
		// One pass of the cheapest Figure 3 program.
		"app_fig3":     func() workload { return &appFig3{progs: []*bench.Program{bench.Crackme}} },
		"restore_tcp":  workloads["restore_tcp"],
		"cold_machine": workloads["cold_machine"],
	}
	for name, newW := range short {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			want := wantE2E
			if traced {
				tr, want = newTracer(), wantLayer
			}
			res, _, err := run(newW, tr, 7, 1, 1)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for k, m := range res.Metrics {
				got[k] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", name, traced, got, want)
			}
		}
	}
}
