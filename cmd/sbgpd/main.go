// Command sbgpd is the resident sweep daemon: a long-lived HTTP
// service that materializes each distinct topology once, keeps
// per-worker engines warm between jobs, and evaluates sweep-grid jobs
// described by the unified, versioned sbgp.JobSpec wire format — the
// same spec files cmd/bgpsim -job runs one-shot, with byte-identical
// results.
//
// Usage:
//
//	sbgpd [-addr 127.0.0.1:8379] [-data sbgpd-data] [-dist]
//
// Jobs queue with priorities (higher first, FIFO within a priority)
// and evaluate one at a time; every completed shard is durably
// checkpointed under the data directory, so killing the daemon
// mid-grid loses nothing — on restart, interrupted jobs resume from
// their checkpoints and finish with bytes identical to an
// uninterrupted run. See internal/service for the API:
//
//	curl -X POST localhost:8379/jobs -d '{"spec": {"version": 1, ...}}'
//	curl localhost:8379/jobs/job-000000
//	curl localhost:8379/jobs/job-000000/events        # SSE progress
//	curl localhost:8379/jobs/job-000000/wait          # block until terminal
//	curl localhost:8379/jobs/job-000000/result        # the grid JSON
//	curl -X POST localhost:8379/jobs/job-000000/cancel
//
// With -dist the daemon additionally mounts a distributed-sweep
// coordinator under /dist/v1/ and evaluates every job through remote
// sbgpworker processes instead of the local engine pool: the coordinator
// cuts the grid into chain-aligned shard leases, re-leases work whose
// worker misses its heartbeat deadline, and ingests partials into the
// same fsync'd per-job checkpoint — so worker loss, duplicate
// submissions, and daemon restarts all preserve the byte-identity
// guarantee. See internal/dist and DESIGN.md for the lease protocol.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: the running job
// is interrupted (checkpoint intact, state still resumable) and the
// job store is left ready for the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sbgp/internal/dist"
	"sbgp/internal/service"
)

// validateFlags rejects lease-protocol settings that would cripple the
// coordinator before the daemon starts serving: a non-positive TTL
// would expire every lease the instant it was granted, and a
// non-positive shard target would grant empty leases.
func validateFlags(leaseTTL time.Duration, leaseShards int) error {
	if leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl must be positive, got %v (a non-positive TTL expires every lease instantly)", leaseTTL)
	}
	if leaseShards <= 0 {
		return fmt.Errorf("-lease-shards must be positive, got %d", leaseShards)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sbgpd: ")
	addr := flag.String("addr", "127.0.0.1:8379", "listen address (use :0 for an ephemeral port)")
	dataDir := flag.String("data", "sbgpd-data", "data directory (job store, checkpoints, results)")
	distMode := flag.Bool("dist", false, "evaluate jobs through remote sbgpworker processes (mounts the coordinator API under /dist/v1/)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "with -dist: heartbeat deadline before a worker's lease is re-issued")
	leaseShards := flag.Int("lease-shards", 16, "with -dist: target shards per lease")
	flag.Parse()
	if err := validateFlags(*leaseTTL, *leaseShards); err != nil {
		log.Fatal(err)
	}

	var opts service.Options
	var coord *dist.Coordinator
	if *distMode {
		coord = dist.NewCoordinator(dist.Options{LeaseTTL: *leaseTTL, LeaseShards: *leaseShards})
		opts.Distributor = coord
	}
	srv, err := service.OpenOptions(*dataDir, opts)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The resolved address on stdout lets scripts (and the CI smoke
	// job) use -addr :0 and discover the port.
	mode := "local evaluation"
	if *distMode {
		mode = "distributed evaluation via /dist/v1/"
	}
	fmt.Printf("sbgpd listening on %s (data %s, %s)\n", ln.Addr(), *dataDir, mode)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	if err := serve(ln, newHandler(srv, coord), sigc); err != nil {
		log.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	log.Print("stopped; queued and interrupted jobs will resume on restart")
}

// newHandler mounts the job API, and with a coordinator the lease
// protocol under /dist/v1/ beside it.
func newHandler(srv *service.Server, coord *dist.Coordinator) http.Handler {
	if coord == nil {
		return srv.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/dist/v1/", coord.Handler())
	mux.Handle("/", srv.Handler())
	return mux
}

// serve answers requests on ln until stop delivers a signal, then shuts
// the HTTP server down and returns nil; a Serve failure is returned.
// Every request context derives from one base context that is cancelled
// on the signal, before Shutdown: the long-lived handlers (job events and
// wait, the coordinator's event stream) watch their request context, so
// they return at once instead of holding Shutdown — and the running job
// behind it — for the full grace period.
func serve(ln net.Listener, handler http.Handler, stop <-chan os.Signal) error {
	reqCtx, cancelRequests := context.WithCancel(context.Background())
	defer cancelRequests()
	httpSrv := &http.Server{
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return reqCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case sig := <-stop:
		log.Printf("received %v, shutting down", sig)
	case err := <-errc:
		return err
	}
	cancelRequests()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	return nil
}
