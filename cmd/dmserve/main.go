// Command dmserve is the long-lived what-if simulation service: it
// drives one baseline run, maintains a rolling ring of durable
// checkpoints in -ckpt-dir, and answers HTTP what-if queries by forking
// the nearest checkpoint at or before the requested instant
// (internal/serve, DESIGN.md §10). The baseline is described by the
// run flags dmserve shares with dmsched (internal/config): policy,
// memory model, machine, workload, scenario and failure injection.
//
//	dmserve -addr :8080 -jobs 20000 -seed 7 -ckpt-dir /var/lib/dmserve \
//	        -ckpt-every 21600 -ckpt-keep 16
//
//	curl localhost:8080/v1/status
//	curl localhost:8080/v1/checkpoints
//	curl localhost:8080/metrics
//	curl 'localhost:8080/v1/trace?from=3600&to=86400'
//	curl -d '{"at":43200,"scenario":"at=50000 down rack=2; at=86400 up rack=2"}' \
//	     localhost:8080/v1/whatif
//
// With -trace-ring N, the newest N baseline lifecycle-trace events
// (submits, dispatches with placement, terminations with reason,
// restarts, interventions, ring-checkpoint boundary marks) are kept in
// a bounded in-memory ring and served on GET /v1/trace, windowed by
// virtual time with ?from= and ?to=.
//
// GET /metrics serves the live baseline gauges plus the service
// counters in Prometheus text format; with -store, the drained
// baseline's final report is archived to a run store (query it with
// dmstore).
//
// SIGINT/SIGTERM stops the drive loop at a clean event boundary, writes
// a final ring checkpoint, and exits with status 3 (the resumable-
// interruption convention shared with dmsched -ckpt-save). Restarting
// with the same -ckpt-dir resumes the baseline bit-identically from the
// newest ring checkpoint; the run flags are then ignored (the
// checkpoint carries the run).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dismem/internal/config"
	"dismem/internal/runstore"
	"dismem/internal/serve"
)

// exitInterrupted is the distinct status for a resumable interruption:
// state persisted, restart with the same -ckpt-dir to continue.
const exitInterrupted = 3

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot hold
// connections open indefinitely.
const readHeaderTimeout = 10 * time.Second

func main() {
	run := config.Register(flag.CommandLine)
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		ckptDir   = flag.String("ckpt-dir", "", "checkpoint ring directory (required); restart with the same directory to resume")
		ckptEvery = flag.Int64("ckpt-every", 21600, "ring checkpoint period in simulated seconds")
		ckptKeep  = flag.Int("ckpt-keep", 16, "ring retention: delete the oldest checkpoint beyond this many (0 = keep all)")
		workers   = flag.Int("workers", 0, "max concurrent what-if forks (0 = GOMAXPROCS)")
		traceRing = flag.Int("trace-ring", 0, "keep the newest N baseline lifecycle-trace events in memory and serve them on GET /v1/trace (0 = tracing off)")
		storeDir  = flag.String("store", "", "archive the drained baseline's report to a run store in this directory (query with dmstore)")
	)
	flag.Parse()

	if *ckptDir == "" {
		fatalf("-ckpt-dir is required (the ring of durable checkpoints is what the service serves from)")
	}
	opts, err := run.Options()
	if err != nil {
		fatalf("%v", err)
	}
	if opts.Workload, err = run.Workload(opts.Machine, os.Stdout, os.Stderr); err != nil {
		fatalf("%v", err)
	}
	var store *runstore.Store
	if *storeDir != "" {
		if store, err = runstore.Open(*storeDir); err != nil {
			fatalf("%v", err)
		}
		defer store.Close()
	}

	s, err := serve.New(serve.Config{
		Options:   opts,
		CkptDir:   *ckptDir,
		CkptEvery: *ckptEvery,
		CkptKeep:  *ckptKeep,
		Workers:   *workers,
		Store:     store,
		TraceRing: *traceRing,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if resumed := s.ResumedFrom(); resumed != "" {
		fmt.Fprintf(os.Stderr, "dmserve: resumed baseline from %s (t=%d)\n", resumed, s.Status().Now)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	httpSrv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dmserve: listening on %s (policy %s, checkpoint every %ds keep %d in %s)\n",
		ln.Addr(), run.Policy, *ckptEvery, *ckptKeep, *ckptDir)

	// The drive loop owns the baseline on the main goroutine; signals
	// cancel between chunks, at a clean event boundary.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := s.Run(ctx); err != nil {
		fatalf("%v", err)
	}
	select {
	case err := <-serveErr:
		fatalf("http: %v", err)
	default:
	}

	// Run only returns cleanly on a signal (after the baseline drains
	// it keeps serving until one arrives): persist, drain, exit 3.
	path, err := s.FinalCheckpoint()
	if err != nil {
		fatalf("%v", err)
	}
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutdownCancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "dmserve: http shutdown: %v\n", err)
	}
	if path != "" {
		fmt.Fprintf(os.Stderr, "dmserve: interrupted at t=%d; final checkpoint %s (restart with the same -ckpt-dir to resume)\n",
			s.Status().Now, path)
	} else {
		fmt.Fprintf(os.Stderr, "dmserve: interrupted; baseline already complete, ring left in %s\n", *ckptDir)
	}
	os.Exit(exitInterrupted)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dmserve: "+format+"\n", args...)
	os.Exit(1)
}
