package zsimd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"bulkpreload/internal/jobq"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/sim"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs        submit a sim.Spec; 202 + job, or 429/503 when shed
//	GET  /v1/jobs        list all jobs (id, state, attempts, checkpoints)
//	GET  /v1/jobs/{id}   one job, including its result when done
//	GET  /healthz        liveness + drain state + queue depth
//	GET  /metrics        Prometheus text (service + per-tenant metrics)
//	GET  /snapshot       raw obs snapshot JSON
//	GET  /debug/vars     expvar
//
// Metrics endpoints publish a fresh snapshot per scrape through an
// obs.Live, keeping the reader path race-free exactly like the
// simulation runner's live endpoint.
func (s *Service) Handler() http.Handler {
	live := &obs.Live{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	publishThen := func(h http.Handler) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			live.Publish(s.m.snapshot())
			h.ServeHTTP(w, r)
		}
	}
	inner := live.Handler()
	mux.HandleFunc("GET /metrics", publishThen(inner))
	mux.HandleFunc("GET /snapshot", publishThen(inner))
	mux.HandleFunc("GET /debug/vars", publishThen(inner))
	return mux
}

// submitRequest is the POST /v1/jobs body: a sim spec plus admission
// identity.
type submitRequest struct {
	Tenant string   `json:"tenant"`
	Spec   sim.Spec `json:"spec"`
}

// apiError is every non-2xx body.
type apiError struct {
	Error      string `json:"error"`
	RetryAfter int64  `json:"retryAfterSeconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// shed writes a backpressure response: status (429 or 503) with a
// Retry-After header, the admission contract clients program against.
func shed(w http.ResponseWriter, status int, retryAfter time.Duration, msg string) {
	secs := int64(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeJSON(w, status, apiError{Error: msg, RetryAfter: secs})
}

// handleSubmit is the admission path: drain check, per-tenant rate
// limit, spec validation, bounded enqueue — shedding, never stalling.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "undecodable request: " + err.Error()})
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}

	if s.Draining() {
		s.m.jobRejected(tenant, rejectDraining)
		shed(w, http.StatusServiceUnavailable, 5*time.Second, "draining for shutdown")
		return
	}
	if ok, retryAfter := s.limiter.Allow(tenant); !ok {
		s.m.jobRejected(tenant, rejectRate)
		shed(w, http.StatusTooManyRequests, retryAfter, "tenant rate limit exceeded")
		return
	}
	// Validate the spec at admission: a bad spec earns a 400 now, not a
	// dead-letter after three doomed attempts.
	if _, err := req.Spec.Unit(); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	payload, err := json.Marshal(req.Spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}

	job, err := s.q.Enqueue(tenant, payload)
	if errors.Is(err, jobq.ErrQueueFull) {
		s.m.jobRejected(tenant, rejectFull)
		shed(w, http.StatusTooManyRequests, 2*time.Second, err.Error())
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Depth jobq.Depth `json:"depth"`
		Jobs  []jobq.Job `json:"jobs"`
	}{s.q.Depth(), s.q.List()})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.q.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.Draining() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, struct {
		Status string     `json:"status"`
		Depth  jobq.Depth `json:"depth"`
	}{state, s.q.Depth()})
}
