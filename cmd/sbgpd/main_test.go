package main

import (
	"bufio"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"sbgp"
	"sbgp/internal/dist"
	"sbgp/internal/service"
)

func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name        string
		leaseTTL    time.Duration
		leaseShards int
		wantErr     string // substring, "" means valid
	}{
		{"defaults", 15 * time.Second, 16, ""},
		{"tuned", time.Minute, 1, ""},
		{"zero ttl", 0, 16, "-lease-ttl must be positive"},
		{"negative ttl", -time.Second, 16, "-lease-ttl must be positive"},
		{"zero shards", 15 * time.Second, 0, "-lease-shards must be positive"},
		{"negative shards", 15 * time.Second, -4, "-lease-shards must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.leaseTTL, tc.leaseShards)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateFlags = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestShutdownWithStreamingClients pins prompt shutdown: with clients
// attached to every long-lived endpoint — the coordinator's event stream,
// and the events and wait endpoints of a job that never finishes (a
// distributed job with no workers) — the signal-to-exit path returns
// well within a second instead of waiting out Shutdown's grace period.
func TestShutdownWithStreamingClients(t *testing.T) {
	coord := dist.NewCoordinator(dist.Options{LeaseTTL: 15 * time.Second, LeaseShards: 16})
	srv, err := service.OpenOptions(t.TempDir(), service.Options{Distributor: coord})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// waiting is closed once the wait request has reached the handler.
	waiting := make(chan struct{})
	inner := newHandler(srv, coord)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/wait") {
			close(waiting)
		}
		inner.ServeHTTP(w, r)
	})
	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serve(ln, handler, stop) }()

	job, err := srv.Submit(&sbgp.JobSpec{Topology: sbgp.TopologySpec{N: 200, Seed: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	// A stream is attached once its first event arrives.
	for _, path := range []string{"/dist/v1/events", "/jobs/" + job.ID + "/events"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
			t.Fatalf("%s: no first event: %v", path, err)
		}
	}
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		if resp, err := http.Get(base + "/jobs/" + job.ID + "/wait"); err == nil {
			resp.Body.Close()
		}
	}()
	<-waiting

	start := time.Now()
	stop <- syscall.SIGTERM
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("shutdown with streaming clients attached took %v, want < 1s", took)
	}
	<-waited
}
