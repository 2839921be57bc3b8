package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"sbgp"
)

// The coordinator's HTTP/JSON API, mounted under /dist/v1/. All bodies
// are strict JSON (unknown fields rejected), like every other wire
// surface in this repository:
//
//	GET  /dist/v1/job        → JobInfo (404 while idle)
//	POST /dist/v1/lease      {"worker","fingerprint"} → LeaseGrant
//	POST /dist/v1/heartbeat  {"lease_id","fingerprint"} → 204
//	POST /dist/v1/offer      {"worker","fingerprint","shards":[...]} → {"want":[...]}
//	POST /dist/v1/submit     {"worker","fingerprint","partials":[...]} → {"accepted","duplicates"}
//	GET  /dist/v1/stats      → Stats
//	GET  /dist/v1/events     → SSE stream of Stats snapshots
//
// Error mapping: ErrNoJob → 404, ErrFingerprintMismatch → 409,
// ErrUnknownLease → 410, validation failures → 400.

type leaseRequest struct {
	Worker      string `json:"worker"`
	Fingerprint string `json:"fingerprint"`
}

type heartbeatRequest struct {
	LeaseID     string `json:"lease_id"`
	Fingerprint string `json:"fingerprint"`
}

type offerRequest struct {
	Worker      string `json:"worker"`
	Fingerprint string `json:"fingerprint"`
	Shards      []int  `json:"shards"`
}

type offerResponse struct {
	Want []int `json:"want"`
}

type submitRequest struct {
	Worker      string               `json:"worker"`
	Fingerprint string               `json:"fingerprint"`
	Partials    []*sbgp.ShardPartial `json:"partials"`
}

type submitResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
}

// Handler returns the coordinator's HTTP API, rooted at /dist/v1/.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /dist/v1/job", c.handleJob)
	mux.HandleFunc("POST /dist/v1/lease", c.handleLease)
	mux.HandleFunc("POST /dist/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /dist/v1/offer", c.handleOffer)
	mux.HandleFunc("POST /dist/v1/submit", c.handleSubmit)
	mux.HandleFunc("GET /dist/v1/stats", c.handleStats)
	mux.HandleFunc("GET /dist/v1/events", c.handleEvents)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// errorStatus maps protocol sentinels to HTTP statuses.
func errorStatus(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, ErrNoJob):
		return http.StatusNotFound
	case errors.Is(err, ErrFingerprintMismatch):
		return http.StatusConflict
	case errors.Is(err, ErrUnknownLease):
		return http.StatusGone
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, errorStatus(err), map[string]string{"error": err.Error()})
}

// decodeStrict decodes a strict-JSON request body into v. An oversized
// body maps to 413 (via errorStatus) with the cap in the message, so a
// worker shipping too-big batches learns the actual limit instead of a
// generic decode error.
func decodeStrict(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("dist: request body exceeds the %d-byte cap: %w", mbe.Limit, err)
		}
		return fmt.Errorf("dist: bad request body: %w", err)
	}
	if dec.More() {
		return errors.New("dist: bad request body: trailing data after the JSON object")
	}
	return nil
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	info, err := c.JobInfo()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := decodeStrict(w, r, 1<<20, &req); err != nil {
		writeError(w, err)
		return
	}
	grant, err := c.Lease(req.Worker, req.Fingerprint)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := decodeStrict(w, r, 1<<20, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := c.Heartbeat(req.LeaseID, req.Fingerprint); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleOffer(w http.ResponseWriter, r *http.Request) {
	var req offerRequest
	if err := decodeStrict(w, r, 1<<20, &req); err != nil {
		writeError(w, err)
		return
	}
	want, err := c.Offer(req.Fingerprint, req.Shards)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, offerResponse{Want: want})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	// Partials are compact integer aggregates, and workers chunk their
	// submissions (submitBatch shards per request), so submit fits the
	// same 1 MiB cap as the control messages.
	if err := decodeStrict(w, r, 1<<20, &req); err != nil {
		writeError(w, err)
		return
	}
	accepted, duplicates, err := c.Submit(req.Worker, req.Fingerprint, req.Partials)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, submitResponse{Accepted: accepted, Duplicates: duplicates})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Stats())
}

// handleEvents streams Stats snapshots as server-sent events on every
// ingestion change until the client disconnects. Wakeups coalesce, so
// a slow client sees fewer, fresher snapshots.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	wake, unsubscribe := c.Subscribe()
	defer unsubscribe()
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	for {
		select {
		case <-r.Context().Done():
			return
		case <-wake:
			data, err := json.Marshal(c.Stats())
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: stats\ndata: %s\n\n", data)
			if canFlush {
				flusher.Flush()
			}
		}
	}
}
