// Command perfbench is the repository benchmark. It runs one workload for
// a given seed and prints every metric, by name and unit, as one JSON
// object on the last line of standard output:
//
//	perfbench --workload app_fig3 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// measures the same workload untraced and then traced, prints the
// per-layer metrics taken from spans recorded around each call into a
// layer, and writes the spans to .bench_build/spans/. It exits non-zero
// when any output fails its check. README.md describes the workloads and
// the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds everything the measured loop needs. It is timed.
	setup(tr *tracer) error
	// measure runs the loop on seeded inputs for about seconds seconds,
	// probing the machine's speed into sl between ops.
	measure(tr *tracer, sl *speedLog, seed int64, seconds float64) (*sample, error)
	close()
}

var workloads = map[string]func() workload{
	"app_fig3":     func() workload { return &appFig3{progs: figurePrograms()} },
	"restore_tcp":  func() workload { return &restoreTCP{} },
	"cold_machine": func() workload { return &coldMachine{} },
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// procs is how many CPUs a run uses: its GOMAXPROCS, closed-loop workers
// and open-loop senders. On a small shared machine a run that fills every
// CPU measures whatever else runs there; on one CPU it measures the same
// work on any machine with at least one CPU to spare.
const procs = 1

// sample is what one measure call saw.
type sample struct {
	lat       []time.Duration // every op of the latency phase in completion order, scaled; failed ones as opTimeout
	attempted int             // every op of the run
	failed    int
	tputOps   int                // completed ops of the closed-loop phase, over tputTime
	tputTime  time.Duration      // the closed-loop phase's scaled op time per worker
	layer     map[string]float64 // per-layer values the workload computes itself
	checks    []string           // failed correctness checks not tied to one op
	firstErr  error
	report    []string // lines for the human-readable report

	// rawBusy and scaledBusy sum every measured op's duration as measured
	// and as scaled; their ratio scales the run's CPU time.
	rawBusy, scaledBusy time.Duration

	cpu        time.Duration
	allocBytes uint64
	gcPause    time.Duration
}

// addBusy adds a loop's op time to the sample's sums.
func (s *sample) addBusy(raw, scaled time.Duration) {
	s.rawBusy += raw
	s.scaledBusy += scaled
}

// checkWarmup fails the run when an unmeasured warm-up op failed: every
// op is checked, measured or not.
func (s *sample) checkWarmup(wu *loopStats) {
	if wu.failed > 0 {
		s.checks = append(s.checks, fmt.Sprintf("warm-up: %d of %d ops failed; first: %v", wu.failed, wu.attempted, wu.firstErr))
	}
}

// opTimeout bounds one op; a failed op counts as taking this long.
const opTimeout = 10 * time.Second

// warmup is how long a closed-loop workload runs, unmeasured and
// untraced, before it measures, so heap growth and first-use costs are
// paid outside.
func warmup(seconds float64) time.Duration {
	return time.Duration(seconds / 10 * float64(time.Second))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type def struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; --trace 0 prints
// them.
var endToEnd = []def{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// layerDef is a per-layer metric; span names the span whose median
// duration it is, when it is one.
type layerDef struct {
	def
	span string
}

// perLayer are the metrics --trace 1 prints. A layer a workload does not
// reach from the benchmark's side reads 0 there.
var perLayer = []layerDef{
	{def{"toolchain.build_ms", "ms"}, "toolchain.build"},
	{def{"elide.sanitize_us", "us"}, "elide.sanitize"},
	{def{"sgx.platform_new_ms", "ms"}, "sgx.platform_new"},
	{def{"sgx.platform_heap_mb", "MiB"}, ""},
	{def{"sgx.launch_ms", "ms"}, "sgx.launch"},
	{def{"sgx.destroy_ms", "ms"}, "sgx.destroy"},
	{def{"sgx.quote_mint_us", "us"}, "sgx.quote_mint"},
	{def{"elide.restore_ecall_ms", "ms"}, "elide.restore_ecall"},
	{def{"elide.sealed_restore_ms", "ms"}, "elide.sealed_restore"},
	{def{"elide.restore_channel_ms", "ms"}, ""},
	{def{"elide.restore_self_ms", "ms"}, ""},
	{def{"evm.restore_instructions", "count"}, ""},
	{def{"evm.sealed_restore_instructions", "count"}, ""},
	{def{"evm.app_ms", "ms"}, ""},
	{def{"evm.app_instructions", "count"}, ""},
	{def{"evm.ns_per_instruction", "ns"}, ""},
	{def{"evm.baseline_app_ms", "ms"}, ""},
	{def{"elide_overhead", "ratio"}, ""},
	{def{"elide.attest_flight_us", "us"}, "elide.attest_flight"},
	{def{"elide.request_us", "us"}, "elide.request"},
	{def{"sdk.ecdh_keygen_us", "us"}, "sdk.ecdh_keygen"},
	{def{"sdk.derive_key_us", "us"}, "sdk.derive_key"},
	{def{"elide.channel_crypto_us", "us"}, "elide.channel_crypto"},
	{def{"elide.flights_per_restore", "ratio"}, ""},
	{def{"elide.dials_per_restore", "ratio"}, ""},
	{def{"elide.bundle_hit_ratio", "ratio"}, ""},
	{def{"server.sessions_per_restore", "ratio"}, ""},
	{def{"server.overload_sheds", "count"}, ""},
	{def{"loadgen.late_p99_ms", "ms"}, ""},
	{def{"loadgen.inflight_max", "count"}, ""},
	{def{"go.alloc_kb_per_op", "KiB"}, ""},
	{def{"go.gc_pause_ms", "ms"}, ""},
	{def{"trace.op_self_ms", "ms"}, ""},
	{def{"trace.overhead_pct", "%"}, ""},
}

func main() {
	name := flag.String("workload", "", "workload: app_fig3, restore_tcp or cold_machine")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
	flag.Parse()
	newW, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments; want --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	res, report, err := run(newW, tr, *seed, *seconds, setupReps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if tr != nil {
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", *name, *seed)
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		report = append(report, "spans written to "+path)
	}
	for _, line := range report {
		fmt.Println("# " + line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run sets the workload up reps times, keeping the last, and measures it.
// Untraced (tr nil) it reports the end-to-end metrics. Traced, it measures
// half the time untraced and half traced and reports the per-layer
// metrics, with the difference between the halves as tracing overhead.
func run(newW func() workload, tr *tracer, seed int64, seconds float64, reps int) (*result, []string, error) {
	sl := &speedLog{}
	var setups []time.Duration
	var w workload
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
		}
		w = newW()
		runtime.GC() // so no set-up pays for collecting the last one's garbage
		sl.burst()
		start := time.Now()
		if err := w.setup(tr); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		sl.burst()
		setups = append(setups, sl.scale(start, d))
	}
	defer w.close()

	var s, plain *sample
	var err error
	if tr == nil {
		s, err = measure(w, nil, sl, seed, seconds)
	} else {
		if plain, err = measure(w, nil, sl, seed, seconds/2); err == nil {
			s, err = measure(w, tr, sl, seed, seconds/2)
		}
	}
	if err != nil {
		return nil, nil, err
	}

	res := &result{Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	if plain != nil {
		res.Attempted += plain.attempted
		res.Failed += plain.failed
	}
	res.Correct = res.Failed == 0 && len(s.checks) == 0 && (plain == nil || len(plain.checks) == 0)
	report := append([]string(nil), s.report...)
	for _, sm := range []*sample{plain, s} {
		if sm == nil {
			continue
		}
		if sm.firstErr != nil {
			report = append(report, fmt.Sprintf("FAILED %d of %d ops; first: %v", sm.failed, sm.attempted, sm.firstErr))
		}
		for _, c := range sm.checks {
			report = append(report, "CHECK FAILED: "+c)
		}
	}

	p50 := median(sortedMs(s.lat))
	tailV, tailPct, windows := windowedTail(s.lat)
	completed := s.attempted - s.failed
	if tr == nil {
		setupMs := sortedMs(setups)
		vals := map[string]float64{
			"setup_s":       median(setupMs) / 1e3,
			"op_p50_ms":     p50,
			"op_tail_ms":    tailV,
			"ops_per_s":     float64(s.tputOps) / s.tputTime.Seconds(),
			"cpu_ms_per_op": float64(s.cpu) / 1e6 / float64(max(completed, 1)),
			"peak_rss_mb":   peakRSSMiB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		report = append(report,
			fmt.Sprintf("setup_s: median of %d set-ups %v ms", len(setups), setupMs),
			fmt.Sprintf("speed: %d probes, median %.3f ms against %.3f ms on the reference machine; op times scaled by %.3f on average",
				len(sl.dur), median(sortedMs(sl.dur)), float64(probeRef)/1e6, float64(s.scaledBusy)/float64(max(s.rawBusy, 1))),
			fmt.Sprintf("op_p50_ms: p50 of n=%d latency samples; op_tail_ms: p%.1f of each of %d windows of %d samples, median over the windows", len(s.lat), tailPct, windows, min(len(s.lat), tailWindow)),
			fmt.Sprintf("ops_per_s: %d ops in %.2f s of scaled op time; fail_ratio %d/%d", s.tputOps, s.tputTime.Seconds(), s.failed, s.attempted))
		return res, report, nil
	}

	st := tr.stats()
	vals := map[string]float64{}
	for k, v := range s.layer {
		vals[k] = v
	}
	for _, d := range perLayer {
		if d.span == "" {
			continue
		}
		scale := 1e6
		if d.unit == "us" {
			scale = 1e3
		}
		vals[d.name] = float64(medianDur(st.dur[d.span])) / scale
	}
	var channel []time.Duration
	for i, d := range st.dur["elide.restore_ecall"] {
		channel = append(channel, d-st.self["elide.restore_ecall"][i])
	}
	vals["elide.restore_channel_ms"] = float64(medianDur(channel)) / 1e6
	vals["elide.restore_self_ms"] = float64(medianDur(st.self["elide.restore_ecall"])) / 1e6
	vals["go.alloc_kb_per_op"] = float64(s.allocBytes) / 1024 / float64(max(completed, 1))
	vals["go.gc_pause_ms"] = float64(s.gcPause) / 1e6
	var opSelf []time.Duration
	for name, selfs := range st.self {
		if strings.HasPrefix(name, "op.") {
			opSelf = append(opSelf, selfs...)
		}
	}
	vals["trace.op_self_ms"] = float64(medianDur(opSelf)) / 1e6
	plainP50 := median(sortedMs(plain.lat))
	if plainP50 > 0 {
		vals["trace.overhead_pct"] = 100 * (p50 - plainP50) / plainP50
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	report = append(report, fmt.Sprintf("trace: op p50 %.3f ms traced vs %.3f ms untraced", p50, plainP50))
	report = append(report, spanTable(st)...)
	return res, report, nil
}

// measure runs one measure call and adds the process CPU time, less the
// probes' and scaled as the ops were, the bytes allocated and the GC pause
// time it cost.
func measure(w workload, tr *tracer, sl *speedLog, seed int64, seconds float64) (*sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, probeCPU0 := cpuTime(), sl.cpu
	s, err := w.measure(tr, sl, seed, seconds)
	if err != nil {
		return nil, err
	}
	s.cpu = cpuTime() - cpu0 - (sl.cpu - probeCPU0)
	if s.rawBusy > 0 {
		s.cpu = time.Duration(float64(s.cpu) * float64(s.scaledBusy) / float64(s.rawBusy))
	}
	runtime.ReadMemStats(&m1)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	if s.attempted == 0 {
		return nil, errors.New("measure: no op attempted")
	}
	return s, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spanTable summarizes the spans per name: count, median duration and
// median self time.
func spanTable(st spanStats) []string {
	var names []string
	for n := range st.dur {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("%-28s %8s %12s %12s", "span", "n", "p50_ms", "self_p50_ms")}
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("%-28s %8d %12.4f %12.4f", n, len(st.dur[n]),
			float64(medianDur(st.dur[n]))/1e6, float64(medianDur(st.self[n]))/1e6))
	}
	return lines
}
