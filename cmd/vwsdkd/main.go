// Command vwsdkd serves the compile pipeline over HTTP: a long-lived
// daemon that keeps one search engine's cache warm across requests and
// coalesces identical concurrent compilations (see internal/server for the
// API). It shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests before exiting.
//
// With -store the plan cache persists: every locally computed plan is
// written behind to a content-addressed on-disk store and a restarted
// daemon answers previously compiled requests from disk without
// re-searching. With -peers a static fleet of vwsdkd instances shares the
// key space by consistent hashing — a miss on a key another node owns is
// proxied to that node (one hop, falling back to local compute when the
// owner is down), so the fleet compiles each key once, anywhere. -warm bulk
// pre-compiles a manifest of requests (resumable via the store) before
// serving; -warm-only exits after warming, for offline store priming.
//
// Examples:
//
//	vwsdkd -addr :8080
//	vwsdkd -addr 127.0.0.1:0 -max-inflight 4 -plan-cache 256 -timeout 30s -quiet
//	vwsdkd -addr :8080 -pprof 127.0.0.1:6060   # opt-in profiling listener
//	vwsdkd -addr :8080 -store /var/lib/vwsdk/plans
//	vwsdkd -addr :8081 -store s1 -peers 127.0.0.1:8081,127.0.0.1:8082
//	vwsdkd -store plans -warm examples/manifests/zoo.json -warm-only
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics            # Prometheus text exposition
//	curl -s -X POST localhost:8080/v1/compile \
//	  -d '{"network": "VGG-13", "array": "512x512"}'
//	curl -s -X POST 'localhost:8080/v1/compile?trace=1' \
//	  -d '{"network": "VGG-13", "array": "512x512"}'   # attaches the span tree
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"sweep": {"networks": ["VGG-13"], "arrays": ["256x256", "512x512"]}}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -s -X DELETE localhost:8080/v1/jobs/job-1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/engine"
	"repro/internal/peer"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vwsdkd:", err)
		os.Exit(1)
	}
}

// shutdownTimeout bounds the graceful drain after a termination signal.
const shutdownTimeout = 10 * time.Second

// run serves until ctx is cancelled (signal or test), then drains. The
// "listening on" line goes to out first, so callers binding port 0 can
// discover the address.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vwsdkd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		cacheSize = fs.Int("cache", -1, "engine result-cache capacity in entries (0 disables, <0 default 4096)")
		planCache = fs.Int("plan-cache", 0, "plan-cache capacity in plans (0 default 128, <0 disables)")
		inflight  = fs.Int("max-inflight", 0, "max concurrently running compilations (0 = GOMAXPROCS)")
		maxQueue  = fs.Int("max-queue", 0, "max compilations waiting for a slot (0 default 64, <0 rejects immediately)")
		maxBody   = fs.Int64("max-body", 0, "request body limit in bytes (0 default 1 MiB)")
		timeout   = fs.Duration("timeout", 0, "per-request deadline; exceeding it returns a structured 504 (0 = none)")
		jobTTL    = fs.Duration("job-ttl", 0, "how long finished jobs stay queryable (0 default 10m, <0 collect immediately)")
		maxJobs   = fs.Int("max-jobs", 0, "max queued or running jobs (0 default 64)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this extra address (empty = off; never on the API listener)")
		storeDir  = fs.String("store", "", "persistent plan store directory (empty = no persistence)")
		peers     = fs.String("peers", "", "comma-separated fleet addresses (host:port) sharing the key space by consistent hashing; must include this node")
		peerSelf  = fs.String("peer-self", "", "this node's address in -peers (default: inferred from the listen port, loopback forms collapse)")
		peerTO    = fs.Duration("peer-timeout", 0, "per-hop deadline when proxying to a peer (0 = 10s default)")
		warmPath  = fs.String("warm", "", "bulk pre-compile this manifest of /v1/compile requests at startup (resumable via -store)")
		warmOnly  = fs.Bool("warm-only", false, "with -warm: exit after warming instead of serving (offline store priming)")
		quiet     = fs.Bool("quiet", false, "disable the per-request access log")
		version   = fs.Bool("version", false, "print the version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(out, "vwsdkd %s\n", cliutil.Version())
		return nil
	}
	if *warmOnly && *warmPath == "" {
		return errors.New("-warm-only requires -warm")
	}
	// A negative deadline or limit would run as 0: no deadline, or the
	// default limit.
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"timeout", *timeout < 0},
		{"peer-timeout", *peerTO < 0},
		{"max-inflight", *inflight < 0},
		{"max-body", *maxBody < 0},
		{"max-jobs", *maxJobs < 0},
	} {
		if f.negative {
			return fmt.Errorf("-%s must not be negative, got %s", f.name, fs.Lookup(f.name).Value)
		}
	}

	var logger *log.Logger
	if !*quiet {
		logger = log.New(out, "vwsdkd: ", log.LstdFlags)
	}
	cfg := server.Config{
		Engine:         engine.New(engine.WithCacheSize(*cacheSize)),
		PlanCacheSize:  *planCache,
		MaxConcurrent:  *inflight,
		MaxQueue:       *maxQueue,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		JobTTL:         *jobTTL,
		MaxJobs:        *maxJobs,
		Logger:         logger,
	}
	var planStore *store.Store
	if *storeDir != "" {
		var err error
		planStore, err = store.Open(*storeDir)
		if err != nil {
			return err
		}
		cfg.Store = planStore
		fmt.Fprintf(out, "vwsdkd: plan store at %s (%d entries)\n", planStore.Dir(), planStore.Len())
	}
	// Flush pending write-behinds on every exit path, so a drained daemon —
	// or a finished -warm-only run — leaves a complete store on disk.
	defer func() {
		if planStore != nil {
			planStore.Flush()
		}
	}()

	// The fleet tier needs the bound port to find this node in -peers, so
	// the listener comes up before the ring when serving; -warm-only skips
	// the listener entirely and identifies itself by -peer-self alone.
	var ln net.Listener
	if !*warmOnly {
		var err error
		ln, err = net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(out, "vwsdkd: listening on %s\n", ln.Addr())
	}

	if *peers != "" {
		self := *peerSelf
		if self == "" && ln != nil {
			self = ln.Addr().String()
		}
		ring, err := peer.NewRing(self, strings.Split(*peers, ","))
		if err != nil {
			return err
		}
		if ring.Self() == "" && !*warmOnly {
			return fmt.Errorf("-peers %q does not include this node (listening on %s); add it or set -peer-self", *peers, ln.Addr())
		}
		cfg.Peers = peer.NewClient(ring, nil, *peerTO)
		fmt.Fprintf(out, "vwsdkd: fleet of %d peers, self %s\n", len(ring.Nodes()), ring.Self())
	}

	srv := server.New(cfg)

	if *warmPath != "" {
		data, err := os.ReadFile(*warmPath)
		if err != nil {
			return fmt.Errorf("warm: %w", err)
		}
		_, reqs, err := server.ParseManifest(data)
		if err != nil {
			return err
		}
		start := time.Now()
		stats, err := srv.Warm(ctx, reqs, 0)
		fmt.Fprintf(out, "vwsdkd: warm %s: %d keys (%d compiled, %d already warm, %d failed) in %s\n",
			*warmPath, stats.Total, stats.Compiled, stats.Hits, stats.Failed, time.Since(start).Round(time.Millisecond))
		if err != nil {
			return fmt.Errorf("warm: %w", err)
		}
		if *warmOnly {
			return nil
		}
	}

	// The profiling endpoint is opt-in and binds its own listener so the
	// API port never exposes pprof, even behind a forgiving reverse proxy.
	var pprofServer *http.Server
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listen: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofServer = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		fmt.Fprintf(out, "vwsdkd: pprof listening on %s\n", pln.Addr())
		go pprofServer.Serve(pln)
		defer pprofServer.Close()
	}

	// No blanket ReadTimeout/WriteTimeout: sweep streams are legitimately
	// long-lived. Header and idle timeouts are what keep slow or abandoned
	// connections from pinning goroutines and file descriptors.
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "vwsdkd: shutting down (draining for up to %s)\n", shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
