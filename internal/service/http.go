package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"

	"sbgp"
)

// The HTTP/JSON API of the daemon. All bodies are strict JSON (unknown
// fields rejected), mirroring the JobSpec wire contract:
//
//	POST /jobs                 {"spec": {...}, "priority": 2} → 201 + Job
//	GET  /jobs                 → [Job, ...] in submission order
//	GET  /jobs/{id}            → Job
//	POST /jobs/{id}/cancel     → Job (idempotent)
//	GET  /jobs/{id}/result     → the result grid JSON (409 until done)
//	GET  /jobs/{id}/events     → SSE stream of Job snapshots until terminal
//	GET  /jobs/{id}/wait       → long-poll: responds with the terminal Job
//	GET  /status               → daemon summary (jobs, warm topologies and engines)
//	GET  /healthz              → 200 ok

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	// Spec is the job, in the sbgp.JobSpec wire format.
	Spec json.RawMessage `json:"spec"`
	// Priority orders the queue: higher runs first, FIFO within a
	// priority. Default 0.
	Priority int `json:"priority,omitempty"`
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/wait", s.handleWait)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	const bodyCap = 1 << 20
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, bodyCap))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		// An oversized spec gets the status and the actual cap, not a
		// generic decode error.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte cap", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, errors.New("trailing data after the submit body"))
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("submit body has no spec"))
		return
	}
	spec, err := sbgp.ReadJobSpec(bytes.NewReader(req.Spec))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.Submit(spec, req.Priority)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+j.ID)
	writeJSON(w, http.StatusCreated, j)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if j.State != StateDone {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s, result exists only for %s", id, j.State, StateDone))
		return
	}
	data, err := os.ReadFile(s.ResultPath(id))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleEvents streams Job snapshots as server-sent events until the
// job reaches a terminal state or the client disconnects. Progress
// wakeups coalesce, so a slow client sees fewer, fresher snapshots —
// never a stale final state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wake, unsubscribe, ok := s.Subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	defer unsubscribe()
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	for {
		select {
		case <-r.Context().Done():
			// Client gone: unsubscribe promptly so the slot and this
			// goroutine don't outlive the connection.
			return
		case <-s.closing:
			return
		case <-wake:
			j, ok := s.Get(id)
			if !ok {
				return
			}
			data, err := json.Marshal(j)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: job\ndata: %s\n\n", data); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
			if j.State.Terminal() {
				return
			}
		}
	}
}

// handleWait long-polls until the job is terminal, then responds with
// its final snapshot (the non-SSE way to block on completion).
func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wake, unsubscribe, ok := s.Subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	defer unsubscribe()
	for {
		select {
		case <-r.Context().Done():
		case <-s.closing:
		case <-wake:
			j, ok := s.Get(id)
			if !ok {
				writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
				return
			}
			if j.State.Terminal() {
				writeJSON(w, http.StatusOK, j)
				return
			}
			continue
		}
		// Shutdown, or a client that left and reads nothing: the job is
		// not terminal, and an empty 200 would read as if it were.
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("job %s is not finished: the server is shutting down", id))
		return
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
