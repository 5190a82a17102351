package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"sgxelide/internal/elf"
	"sgxelide/internal/elide"
	"sgxelide/internal/sdk"
)

// elideUCGlueLOC is the untrusted code a developer adds to use SgxElide:
// install the runtime, connect a client, and make the one elide_restore
// call (the paper's constant +50 LoC covers the same glue plus its ocall
// C shims, which live in our Go runtime instead).
const elideUCGlueLOC = 6

// elideTCLOC is the trusted code SgxElide links into every enclave
// (the paper's constant +113 LoC).
func elideTCLOC() int {
	return countLines(elide.TrustedC) + countLines(elide.TrustedAsm) + countLines(elide.EDLSource)
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Name               string
	OriginalLOC        int // the ported algorithm (trusted C before enclave glue)
	UCwSGX, TCwSGX     int
	UCwElide, TCwElide int
	TCFunctions        int
	TCBytes            uint64
	SanitizedFunctions int
	SanitizedBytes     uint64
}

// Table1 builds every benchmark with SgxElide and reports the sanitizer
// statistics of Table 1.
func Table1(env *Env) ([]Table1Row, error) {
	var rows []Table1Row
	for _, p := range All() {
		prot, err := BuildProtected(env, p, elide.SanitizeOptions{})
		if err != nil {
			return nil, err
		}
		f, err := elf.Read(prot.SanitizedELF)
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Name:               p.Name,
			OriginalLOC:        countLines(p.TrustedC),
			UCwSGX:             p.UntrustedLOC(),
			TCwSGX:             p.TrustedLOC(),
			UCwElide:           p.UntrustedLOC() + elideUCGlueLOC,
			TCwElide:           p.TrustedLOC() + elideTCLOC(),
			TCFunctions:        len(f.FuncSymbols()),
			TCBytes:            prot.Stats.TotalTextBytes,
			SanitizedFunctions: prot.Stats.SanitizedFunctions,
			SanitizedBytes:     prot.Stats.SanitizedBytes,
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Stat is a mean ± standard deviation in milliseconds.
type Stat struct {
	MeanMs float64
	StdMs  float64
}

// median returns the median sample in milliseconds (robust against
// scheduler noise on shared machines; used for the Figures).
func median(samples []time.Duration) float64 {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return float64(s[mid].Nanoseconds()) / 1e6
	}
	return float64((s[mid-1] + s[mid]).Nanoseconds()) / 2 / 1e6
}

func newStat(samples []time.Duration) Stat {
	n := float64(len(samples))
	var mean float64
	for _, s := range samples {
		mean += float64(s.Nanoseconds())
	}
	mean /= n
	var varsum float64
	for _, s := range samples {
		d := float64(s.Nanoseconds()) - mean
		varsum += d * d
	}
	std := math.Sqrt(varsum / n)
	return Stat{MeanMs: mean / 1e6, StdMs: std / 1e6}
}

// Table2Row is one row of the paper's Table 2: sanitize and restore times
// for remote-data and local-data modes, with each restore's exact
// instruction count.
type Table2Row struct {
	Name                          string
	RemoteSanitize, RemoteRestore Stat
	LocalSanitize, LocalRestore   Stat
	RemoteSteps, LocalSteps       uint64
}

// Table2 measures sanitization (offline) and restoration (the first-launch
// runtime cost) for each benchmark, iters times each.
func Table2(env *Env, iters int) ([]Table2Row, error) {
	_, wl, err := Fixtures()
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, p := range All() {
		row := Table2Row{Name: p.Name}

		// Build the unsanitized enclave once; the sanitizer is what we time.
		iface, err := elide.MergeEDL(p.EDL)
		if err != nil {
			return nil, err
		}
		sources := append(elide.TrustedSources(), sdk.C(p.Name+".c", p.TrustedC))
		res, err := sdk.BuildEnclave(sdk.BuildConfig{}, iface, sources...)
		if err != nil {
			return nil, err
		}

		for _, local := range []bool{false, true} {
			opts := elide.SanitizeOptions{EncryptLocal: local}
			var sanTimes []time.Duration
			for i := 0; i < iters; i++ {
				start := time.Now()
				if _, err := elide.Sanitize(res.ELF, wl, opts); err != nil {
					return nil, err
				}
				sanTimes = append(sanTimes, time.Since(start))
			}

			prot, err := BuildProtected(env, p, opts)
			if err != nil {
				return nil, err
			}
			srv, err := prot.NewServerFor(env.CA)
			if err != nil {
				return nil, err
			}
			var restTimes []time.Duration
			var steps uint64
			for i := 0; i < iters; i++ {
				encl, rt, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
				if err != nil {
					return nil, err
				}
				start := time.Now()
				code, err := encl.ECall("elide_restore", 0)
				took := time.Since(start)
				if err != nil || code != elide.RestoreOKServer {
					encl.Destroy()
					return nil, fmt.Errorf("%s: restore failed: %d %v (%v)", p.Name, code, err, rt.LastErr())
				}
				restTimes = append(restTimes, took)
				steps = encl.Steps
				encl.Destroy()
			}
			if local {
				row.LocalSanitize = newStat(sanTimes)
				row.LocalRestore = newStat(restTimes)
				row.LocalSteps = steps
			} else {
				row.RemoteSanitize = newStat(sanTimes)
				row.RemoteRestore = newStat(restTimes)
				row.RemoteSteps = steps
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FigureRow is one bar pair of Figure 3 / Figure 4: normalized end-to-end
// runtime of the protected benchmark relative to the plain-SGX baseline,
// and the same overhead in exact form from instruction counts.
type FigureRow struct {
	Name         string
	BaselineMs   float64
	ProtectedMs  float64
	RelativePerf float64 // protected / baseline (1.00 = no overhead)
	Steps        Steps   // of the protected run
}

// StepRatio is restore ÷ test-suite instructions: the restore's share of
// the run, free of the host's timing noise.
func (r FigureRow) StepRatio() float64 { return float64(r.Steps.Restore) / float64(r.Steps.Suite) }

// Figures measures the overall performance overhead (Figure 3: remote data;
// Figure 4: local data). Following the paper, the games are excluded and
// each measured run is the whole application: enclave creation, restoration
// (protected only), and the built-in test suite. Each iteration runs the
// baseline and then the protected application, so a drift in the host's
// speed lands on both sides.
func Figures(env *Env, local bool, iters int) ([]FigureRow, error) {
	var rows []FigureRow
	for _, p := range All() {
		if p.IsGame {
			continue
		}
		prot, err := BuildProtected(env, p, elide.SanitizeOptions{EncryptLocal: local})
		if err != nil {
			return nil, err
		}
		srv, err := prot.NewServerFor(env.CA)
		if err != nil {
			return nil, err
		}

		// The baseline image is compiled and signed here, outside the timed
		// runs, which reload it like ./app would.
		if _, err := cachedBaselineImage(env, p); err != nil {
			return nil, err
		}
		var baseTimes, protTimes []time.Duration
		var steps Steps
		for i := 0; i < iters; i++ {
			start := time.Now()
			encl, err := BuildBaseline(env, p)
			if err != nil {
				return nil, err
			}
			if err := p.Workload(env.Host, encl); err != nil {
				encl.Destroy()
				return nil, fmt.Errorf("%s baseline: %w", p.Name, err)
			}
			encl.Destroy()
			baseTimes = append(baseTimes, time.Since(start))

			start = time.Now()
			encl, rt, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
			if err != nil {
				return nil, err
			}
			code, err := encl.ECall("elide_restore", 0)
			if err != nil || code != elide.RestoreOKServer {
				encl.Destroy()
				return nil, fmt.Errorf("%s: restore: %d %v (%v)", p.Name, code, err, rt.LastErr())
			}
			steps.Restore = encl.Steps
			if err := p.Workload(env.Host, encl); err != nil {
				encl.Destroy()
				return nil, fmt.Errorf("%s protected: %w", p.Name, err)
			}
			steps.Suite = encl.Steps - steps.Restore
			encl.Destroy()
			protTimes = append(protTimes, time.Since(start))
		}
		base := median(baseTimes)
		protMs := median(protTimes)
		rows = append(rows, FigureRow{
			Name:         p.Name,
			BaselineMs:   base,
			ProtectedMs:  protMs,
			RelativePerf: protMs / base,
			Steps:        steps,
		})
	}
	return rows, nil
}

// --- rendering ---

// RenderTable1 formats Table 1 like the paper.
func RenderTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1. The ported benchmarks (UC = untrusted, TC = trusted component).\n")
	fmt.Fprintf(&sb, "%-10s %9s %8s %8s %10s %10s %6s %9s %10s %10s\n",
		"Benchmark", "Orig LOC", "UC/SGX", "TC/SGX", "UC/Elide", "TC/Elide",
		"TCFns", "TCBytes", "SanitFns", "SanitBytes")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %9d %8d %8d %10d %10d %6d %9d %10d %10d\n",
			r.Name, r.OriginalLOC, r.UCwSGX, r.TCwSGX, r.UCwElide, r.TCwElide,
			r.TCFunctions, r.TCBytes, r.SanitizedFunctions, r.SanitizedBytes)
	}
	return sb.String()
}

// RenderTable2 formats Table 2 like the paper.
func RenderTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2. Sanitization/restoration execution time (ms) with remote/local data,\n")
	sb.WriteString("and each restore's instructions inside the enclave (Insns).\n")
	fmt.Fprintf(&sb, "%-10s | %9s %7s %9s %7s %9s | %9s %7s %9s %7s %9s\n",
		"", "RemSanit", "Std", "RemRest", "Std", "Insns", "LocSanit", "Std", "LocRest", "Std", "Insns")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s | %9.3f %7.3f %9.3f %7.3f %9d | %9.3f %7.3f %9.3f %7.3f %9d\n",
			r.Name,
			r.RemoteSanitize.MeanMs, r.RemoteSanitize.StdMs,
			r.RemoteRestore.MeanMs, r.RemoteRestore.StdMs, r.RemoteSteps,
			r.LocalSanitize.MeanMs, r.LocalSanitize.StdMs,
			r.LocalRestore.MeanMs, r.LocalRestore.StdMs, r.LocalSteps)
	}
	return sb.String()
}

// RenderFigure formats Figure 3/4 data as a table plus normalized bars in
// the style of the paper's figures (both bars scaled to the baseline).
func RenderFigure(title string, rows []FigureRow) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%-10s %12s %13s %10s %16s\n", "Benchmark", "w/ SGX (ms)", "w/ Elide (ms)", "Relative", "Restore/suite")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %12.1f %13.1f %9.1f%% %15.2f%%\n",
			r.Name, r.BaselineMs, r.ProtectedMs, 100*r.RelativePerf, 100*r.StepRatio())
	}
	sb.WriteString("(Restore/suite: restore ÷ test-suite instructions inside the enclave.)\n")
	sb.WriteString("\nRelative performance (100% = w/ SGX baseline):\n")
	const width = 40 // bar length of the 100% baseline
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s w/SGX      |%s| 100.0%%\n", r.Name, bar(1.0, width))
		fmt.Fprintf(&sb, "%-10s w/SgxElide |%s| %.1f%%\n", "", bar(r.RelativePerf, width), 100*r.RelativePerf)
	}
	return sb.String()
}

// bar renders a proportional bar capped at 150% of the baseline width.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1.5 {
		frac = 1.5
	}
	n := int(frac*float64(width) + 0.5)
	pad := int(1.5*float64(width)+0.5) - n
	return strings.Repeat("#", n) + strings.Repeat(" ", pad)
}
