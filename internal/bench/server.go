package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// ServerBenchConfig drives the authentication-server transport benchmark:
// Clients simultaneous machines, each dialing the TCP server, attesting,
// and restoring its own copy of Program's sanitized enclave.
type ServerBenchConfig struct {
	Program     string // benchmark name (see All); default "Sha1"
	Clients     int    // concurrent clients; default 16
	MaxSessions int    // server concurrent-session cap; default 8
}

// LatencySummary is the machine-readable slice of an obs histogram, in
// microseconds (the paper reports restore times in ms; transport
// operations land in the µs–ms range).
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	MinUs  float64 `json:"min_us"`
	MaxUs  float64 `json:"max_us"`
}

func summarize(h obs.HistogramSnapshot) LatencySummary {
	us := func(ns float64) float64 { return ns / 1e3 }
	return LatencySummary{
		Count:  h.Count,
		MeanUs: us(float64(h.Mean().Nanoseconds())),
		P50Us:  us(float64(h.P50Nanos)),
		P90Us:  us(float64(h.P90Nanos)),
		P99Us:  us(float64(h.P99Nanos)),
		MinUs:  us(float64(h.MinNanos)),
		MaxUs:  us(float64(h.MaxNanos)),
	}
}

// ServerBenchResult is the JSON document elide-bench writes to
// BENCH_server.json.
type ServerBenchResult struct {
	Program     string  `json:"program"`
	Clients     int     `json:"clients"`
	MaxSessions int     `json:"max_sessions"`
	WallMs      float64 `json:"wall_ms"`
	Restores    int     `json:"restores"`

	// Server-side transport latencies (per attestation / per decrypted
	// channel request) and the raw counters backing them.
	ServerAttest  LatencySummary    `json:"server_attest_latency"`
	ServerRequest LatencySummary    `json:"server_request_latency"`
	ClientAttest  LatencySummary    `json:"client_attest_latency"`
	ClientRequest LatencySummary    `json:"client_request_latency"`
	Counters      map[string]uint64 `json:"counters"`
}

func (r *ServerBenchResult) String() string {
	return fmt.Sprintf(
		"server bench: %s, %d clients (cap %d): %d restores in %.1f ms\n"+
			"  attest  p50 %.0fµs  p90 %.0fµs  p99 %.0fµs (server-side, n=%d)\n"+
			"  request p50 %.0fµs  p90 %.0fµs  p99 %.0fµs (server-side, n=%d)",
		r.Program, r.Clients, r.MaxSessions, r.Restores, r.WallMs,
		r.ServerAttest.P50Us, r.ServerAttest.P90Us, r.ServerAttest.P99Us, r.ServerAttest.Count,
		r.ServerRequest.P50Us, r.ServerRequest.P90Us, r.ServerRequest.P99Us, r.ServerRequest.Count)
}

// ServerBench builds one protected program, serves it over TCP, and runs
// cfg.Clients concurrent full restores against it, each client on its own
// simulated machine. It returns the latency percentiles recorded by the
// server's and clients' obs registries.
func ServerBench(env *Env, cfg ServerBenchConfig) (*ServerBenchResult, error) {
	if cfg.Program == "" {
		cfg.Program = "Sha1"
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 16
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 8
	}
	p, err := ByName(cfg.Program)
	if err != nil {
		return nil, err
	}
	prot, err := BuildProtected(env, p, elide.SanitizeOptions{})
	if err != nil {
		return nil, err
	}

	serverMetrics := obs.NewRegistry()
	clientMetrics := obs.NewRegistry()
	srv, err := prot.NewServerFor(env.CA,
		elide.WithMaxSessions(cfg.MaxSessions),
		elide.WithServerMetrics(serverMetrics),
	)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()

	start := time.Now()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		restores int
		firstErr error
	)
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := func() error {
				platform, err := sgx.NewPlatform(sgx.Config{}, env.CA)
				if err != nil {
					return err
				}
				host := sdk.NewHost(platform)
				// Unbundled, so the server answers attest and each channel
				// request separately and both latency histograms fill.
				client := elide.NewTCPClient(l.Addr().String(),
					elide.WithProtocolVersion(elide.ProtoUnbundled),
					elide.WithClientMetrics(clientMetrics),
					// Under heavy oversubscription (many clients, few
					// cores) generous deadlines keep the measurement about
					// the transport, not the scheduler.
					elide.WithDialTimeout(30*time.Second),
					elide.WithRequestTimeout(time.Minute),
				)
				defer func() { _ = client.Close() }()
				encl, rt, err := prot.Launch(host, client, prot.LocalFiles())
				if err != nil {
					return err
				}
				defer encl.Destroy()
				code, err := encl.ECall("elide_restore", 0)
				if err != nil {
					return err
				}
				if code != elide.RestoreOKServer {
					return fmt.Errorf("restore code %d (runtime: %v)", code, rt.LastErr())
				}
				mu.Lock()
				restores++
				mu.Unlock()
				return nil
			}()
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cancel()
	if err := <-served; err != nil && !errors.Is(err, elide.ErrServerClosed) {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}

	ssnap := serverMetrics.Snapshot()
	csnap := clientMetrics.Snapshot()
	counters := make(map[string]uint64, len(ssnap.Counters)+len(csnap.Counters))
	for k, v := range ssnap.Counters {
		counters[k] = v
	}
	for k, v := range csnap.Counters {
		counters[k] = v
	}
	return &ServerBenchResult{
		Program:       p.Name,
		Clients:       cfg.Clients,
		MaxSessions:   cfg.MaxSessions,
		WallMs:        float64(wall.Nanoseconds()) / 1e6,
		Restores:      restores,
		ServerAttest:  summarize(ssnap.Histograms["server.attest_ns"]),
		ServerRequest: summarize(ssnap.Histograms["server.request_ns"]),
		ClientAttest:  summarize(csnap.Histograms["client.attest_ns"]),
		ClientRequest: summarize(csnap.Histograms["client.request_ns"]),
		Counters:      counters,
	}, nil
}
