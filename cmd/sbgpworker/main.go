// Command sbgpworker is the distributed-sweep worker: it connects to a
// coordinator (sbgpd -dist, or anything mounting internal/dist's API
// under /dist/v1/), pulls chain-aligned shard leases, evaluates them
// with a local engine pool, and ships exact positional partials back.
//
// Usage:
//
//	sbgpworker -coordinator http://127.0.0.1:8379 [-id worker-a]
//	           [-workers N] [-poll 500ms] [-oneshot]
//
// An idle worker holds one job request open until the coordinator
// installs a job; a worker serving one takes each next lease from the
// reply to the submit that ships the last, one round trip per lease.
// -poll is only the retry interval after a failed call.
//
// The worker rebuilds the job's simulation from the canonical JobSpec
// the coordinator serves, and refuses to evaluate when its locally
// computed grid fingerprint differs from the coordinator's — a version
// or topology skew can therefore never corrupt a grid. Workers are
// expendable: kill one mid-lease and the coordinator re-leases its
// shards after the heartbeat deadline; restart it and it ships only
// the shards the coordinator is still missing. Duplicate submissions
// are idempotent, so the merged grid is byte-identical to a single-box
// run no matter how many workers come and go.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sbgp/internal/dist"
)

// validateFlags rejects settings that would wedge the worker before it
// contacts a coordinator: zero parallelism evaluates nothing, and a
// negative value is never a CPU count.
func validateFlags(workers int) error {
	if workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", workers)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sbgpworker: ")
	coordinator := flag.String("coordinator", "http://127.0.0.1:8379", "coordinator base URL")
	id := flag.String("id", "", "worker name in lease requests (default: hostname-pid)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "evaluation parallelism per lease")
	poll := flag.Duration("poll", 500*time.Millisecond, "retry interval after a failed call")
	oneshot := flag.Bool("oneshot", false, "serve one job to completion, then exit")
	throttle := flag.Duration("throttle", 0, "artificial delay per evaluated shard (chaos/smoke testing)")
	flag.Parse()
	if err := validateFlags(*workers); err != nil {
		log.Fatal(err)
	}

	name := *id
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	w := &dist.Worker{
		Base:     *coordinator,
		ID:       name,
		Workers:  *workers,
		Poll:     *poll,
		OneJob:   *oneshot,
		Throttle: *throttle,
	}
	log.Printf("%s serving %s", name, *coordinator)
	err := w.Run(ctx)
	st := w.Stats()
	log.Printf("leases=%d evaluated=%d shipped=%d skipped=%d",
		st.Leases, st.ShardsEvaluated, st.ShardsShipped, st.ShardsSkipped)
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Fatal(err)
	}
}
