// Command vp-serve runs a simulation-session server: preloaded sessions and
// any number of API-submitted ones execute on a bounded worker pool while
// their live telemetry streams over HTTP, so a long immobilizer run, a
// benchmark sweep, or a policy x workload campaign can be driven and watched
// from curl, a dashboard, or a real Prometheus scraper.
//
// Usage:
//
//	vp-serve [-addr host:port] [-workers N] [-queue-depth N] [-store dir]
//	         [-sessions immo,qsort,...] [-sample-every 1ms]
//	         [-log-level info] [-log-format text|json] [-debug-addr host:port]
//
// The versioned API (see api.md for the full route table):
//
//	POST   /api/v1/sessions               submit a session spec
//	GET    /api/v1/sessions               session list
//	GET    /api/v1/sessions/{id}          one session
//	DELETE /api/v1/sessions/{id}          cancel/end a session
//	GET    /api/v1/sessions/{id}/result   final result (409 until done)
//	GET    /api/v1/sessions/{id}/timeseries  sampler ring (?format=jsonl|csv)
//	GET    /api/v1/sessions/{id}/events   SSE tail of the observer ring
//	POST   /api/v1/campaigns              run a policies x workloads grid
//	GET    /api/v1/campaigns/{id}/results cell results (paginated or ?stream=sse)
//	GET    /api/v1/results/{key}          result-store entry by content hash
//	GET    /api/v1/trace                  fleet lifecycle as a Chrome trace
//	GET    /healthz, /readyz, /metrics    liveness, readiness, Prometheus exposition
//
// Results are deduplicated by (image, policy, stimulus) content hash;
// -store persists them to a directory so repeat submissions across restarts
// are cache hits. On SIGINT/SIGTERM the server stops intake, drains the
// queue for -drain-timeout, then cancels the remainder and exits.
//
// The default preloaded session is the immobilizer of the Section VI-A case
// study under its base policy, fed a fresh challenge every -challenge-every
// of simulated time — an endless authentication loop whose taint events
// stream on /events. Any driverless Table II workload name (qsort,
// dhrystone, primes, sha512) preloads that benchmark on the VP+ instead;
// -sessions ” preloads nothing and leaves the server to the API.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vpdift/internal/kernel"
	"vpdift/internal/serve"
	"vpdift/internal/telemetry"
)

var (
	addr           = flag.String("addr", "127.0.0.1:8372", "HTTP listen address")
	workersFlag    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queueDepth     = flag.Int("queue-depth", telemetry.DefaultQueueDepth, "pending-session queue capacity")
	storeDir       = flag.String("store", "", "persist results to this directory (default in-memory)")
	sessionTimeout = flag.Duration("session-timeout", 0, "default wall-clock timeout per session (0 = none)")
	drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight sessions")
	sessionsFlag   = flag.String("sessions", "immo", "comma-separated sessions to preload: immo, micro, a Table II workload, or wk-N")
	scaleFlag      = flag.String("scale", "small", "workload scale for Table II sessions: small, medium or large")
	sampleEvery    = flag.Duration("sample-every", time.Millisecond, "simulated-time metrics sampling period for preloaded sessions")
	stepFlag       = flag.Duration("step", time.Millisecond, "simulated time each session advances per locked chunk")
	horizonFlag    = flag.Duration("horizon", 0, "stop each preloaded session at this much simulated time (0 runs until the guest exits)")
	challengeEvery = flag.Duration("challenge-every", 5*time.Millisecond, "simulated time between immobilizer challenges")
	logLevel       = flag.String("log-level", "info", "structured-log level: debug, info, warn or error")
	logFormat      = flag.String("log-format", "text", "structured-log format: text or json")
	debugAddr      = flag.String("debug-addr", "", "serve net/http/pprof on this address (off when empty)")
)

// newLogger builds the process logger from -log-level/-log-format; it is
// shared by vp-serve's own messages and the server's request/lifecycle logs.
func newLogger() (*slog.Logger, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return nil, fmt.Errorf("vp-serve: -log-level %q: %w", *logLevel, err)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch *logFormat {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("vp-serve: -log-format must be text or json, got %q", *logFormat)
	}
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	log, err := newLogger()
	if err != nil {
		return err
	}
	factory := &serve.Factory{
		ChallengeEvery: kernel.Time((*challengeEvery).Nanoseconds()),
	}
	opts := []telemetry.ServerOption{
		telemetry.WithFactory(factory),
		telemetry.WithQueueDepth(*queueDepth),
		telemetry.WithLogger(log),
	}
	if *workersFlag > 0 {
		opts = append(opts, telemetry.WithWorkers(*workersFlag))
	}
	if *sessionTimeout > 0 {
		opts = append(opts, telemetry.WithSessionTimeout(*sessionTimeout))
	}
	if *storeDir != "" {
		st, err := telemetry.NewFileStore(*storeDir)
		if err != nil {
			return err
		}
		opts = append(opts, telemetry.WithResultStore(st))
		log.Info("result store opened", "dir", *storeDir, "results", st.Len())
	}
	sv := telemetry.NewServer(opts...)
	defer sv.Close()

	// /readyz answers "starting" (503) until the preloaded sessions exist;
	// the listener comes up first so probes can watch the transition.
	sv.SetReady(false)
	httpSrv := &http.Server{Addr: *addr, Handler: sv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("serving", "addr", *addr, "workers", sv.Workers(), "queue_depth", *queueDepth)

	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Info("pprof listener", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				log.Warn("pprof listener failed", "error", err)
			}
		}()
	}

	if err := preload(sv, factory, log); err != nil {
		return err
	}
	sv.SetReady(true)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Info("signal received; draining", "signal", sig.String(), "timeout", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := sv.Drain(ctx); err != nil {
			log.Warn("drain incomplete; canceling remaining sessions", "error", err)
		}
		sv.Close()
		st := sv.Stats()
		log.Info("shutdown", "completed", st.Completed, "canceled", st.Canceled, "cache_hits", st.CacheHits)
		shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel2()
		return httpSrv.Shutdown(shutdownCtx)
	}
}

// preload submits the -sessions list through the factory while /readyz still
// answers "starting", preserving the pre-pool behavior of a server that is
// already simulating when the first scrape lands.
func preload(sv *telemetry.Server, factory *serve.Factory, log *slog.Logger) error {
	step := kernel.Time((*stepFlag).Nanoseconds())
	for _, name := range strings.Split(*sessionsFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec := telemetry.SessionSpec{
			Workload:  name,
			Scale:     *scaleFlag,
			HorizonMs: (*horizonFlag).Milliseconds(),
			SampleUs:  (*sampleEvery).Microseconds(),
			Observe:   true,
		}
		cfg, err := factory.Build(spec)
		if err != nil {
			return fmt.Errorf("vp-serve: session %q: %w", name, err)
		}
		cfg.ID = name
		cfg.Step = step
		key, err := factory.Key(spec)
		if err == nil {
			cfg.Key = key
		}
		if err := sv.Submit(cfg); err != nil {
			return fmt.Errorf("vp-serve: session %q: %w", name, err)
		}
		log.Info("session preloaded", "session", name, "sample_every", *sampleEvery)
	}
	return nil
}
