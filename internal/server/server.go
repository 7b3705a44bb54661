// Package server is pdpad's v1 HTTP surface. It serves a Backend — a
// standalone or node daemon's runqueue.Pool, or the fleet coordinator — and
// is the only code that decodes v1 request bodies, maps failures onto the
// error envelope, paginates, streams server-sent events, recovers handler
// panics, and evaluates the SiteHTTPRequest fault point. Endpoints:
//
//	POST   /v1/runs             submit a workload + options payload
//	GET    /v1/runs             list runs, newest first (limit=, cursor=, state=)
//	POST   /v1/runs/reconcile   bulk-report authoritative run states (fleet recovery)
//	GET    /v1/runs/{id}        status, and the full result once done
//	DELETE /v1/runs/{id}        cancel a queued or running simulation
//	GET    /v1/runs/{id}/events server-sent lifecycle events
//	GET    /v1/runs/{id}/trace  the done run's decision trace (JSON)
//	GET    /v1/version          build info, API revision, and role
//	POST   /v1/sweeps           submit a policy × mix × load × seed grid
//	GET    /v1/sweeps           list sweeps, newest first (limit=, cursor=, state=)
//	GET    /v1/sweeps/{id}      progress, and per-cell aggregates once done
//	DELETE /v1/sweeps/{id}      cancel a sweep's remaining members
//	GET    /healthz             liveness probe
//	GET    /metrics             Prometheus text exposition
//
// Every backend serves every route; request and response bodies are the
// client package's wire types. The list endpoints paginate with an opaque
// cursor: pass limit= (default 100, capped at 1000) and follow the
// response's next_cursor until it is absent; state= filters to one
// lifecycle state. Every non-2xx response carries the unified error
// envelope documented in errors.go. Extra routes (the coordinator's node
// plane) mount behind the same front door with HandleFunc.
//
// Everything is stdlib net/http; the package has no third-party
// dependencies.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/obs"
	"pdpasim/internal/runqueue"
)

// maxRequestBody bounds submission payloads; larger bodies get 413. A full
// sweep grid serializes well under a megabyte.
const maxRequestBody = 1 << 20

// Backend is what the server serves. Request bodies arrive decoded and
// validated for shape (known fields, non-negative deadline); views come
// back in wire form. Lookups of unknown IDs fail with an error matching
// runqueue.ErrNotFound or a *client.APIError with status 404.
//
// Errors map onto the envelope by type: a *client.APIError is written
// verbatim (status, code, message, retry hint) — the coordinator's own
// rejections and the node envelopes it relays take this form; the pool's
// sentinels map to their codes (OverloadError → 429 overloaded,
// ErrDraining → 503 draining, ErrNotFound → 404); anything else is the
// caller's fault, 400 invalid_request.
type Backend interface {
	SubmitRun(ctx context.Context, req client.SubmitRunRequest) (client.SubmitResult, error)
	// Run returns a run's view, its result included once done.
	Run(ctx context.Context, id string) (client.RunView, error)
	// CancelRun cancels a run and returns its view without the result.
	CancelRun(ctx context.Context, id string) (client.RunView, error)
	// ListRuns returns every run's view, newest first, without results.
	ListRuns(ctx context.Context) []client.RunView
	// FollowRun emits a run's lifecycle events through its terminal one.
	// It fails before emitting anything when the run is unknown.
	FollowRun(ctx context.Context, id string, emit func(client.Event)) error
	// Trace returns a run's decision-trace JSON.
	Trace(ctx context.Context, id string) ([]byte, error)

	// The sweep calls. Both backends serve them from one
	// runqueue.SweepIndex, which owns grid expansion, sweep IDs, the sweep
	// journal, lookups, listings and views; a backend supplies only batch
	// admission, member states and member cancel.
	SubmitSweep(ctx context.Context, req client.SubmitSweepRequest) (client.SweepSubmitResult, error)
	// Sweep returns a sweep's view with its run IDs and, once done, cells.
	Sweep(ctx context.Context, id string) (client.SweepView, error)
	// Sweeps returns every sweep's view, newest first, without run IDs or
	// cells.
	Sweeps(ctx context.Context) []client.SweepView
	// CancelSweep cancels a sweep's remaining members and returns its view
	// without run IDs or cells.
	CancelSweep(ctx context.Context, id string) (client.SweepView, error)

	// Health reports the admission state; the server adds the uptime.
	Health() client.Health
	// Metrics is the registry GET /metrics renders; the server registers
	// its own recovered-panics series on it.
	Metrics() *obs.Registry
}

// Server routes HTTP traffic to a Backend. Create with New; it implements
// http.Handler.
type Server struct {
	b       Backend
	mux     *http.ServeMux
	started time.Time
	role    string

	faults    *faults.Injector
	recovered *obs.Counter
}

// Option customizes a Server.
type Option func(*Server)

// WithFaults installs a fault injector evaluated at the top of every request
// — chaos-test tooling. The default nil injector is a no-op.
func WithFaults(inj *faults.Injector) Option {
	return func(s *Server) { s.faults = inj }
}

// New returns a server backed by b.
func New(b Backend, opts ...Option) *Server {
	s := &Server{b: b, mux: http.NewServeMux(), started: time.Now(), role: RoleStandalone}
	for _, o := range opts {
		o(s)
	}
	// The "http" series of the family whose "worker" series the pool owns.
	s.recovered = b.Metrics().LabeledCounter("pdpad_recovered_panics_total",
		"Panics recovered without taking the daemon down, by origin.", "where", "http")
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("POST /v1/runs/reconcile", s.handleReconcile)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleListSweeps)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancelSweep)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// HandleFunc mounts an extra route behind the server's front door, so it
// gets the same panic recovery and fault injection as the v1 routes.
func (s *Server) HandleFunc(pattern string, handler http.HandlerFunc) {
	s.mux.HandleFunc(pattern, handler)
}

// ServeHTTP implements http.Handler. Every request passes through panic
// recovery — a handler bug answers 500 and increments the recovered-panics
// counter instead of killing the daemon — and, when a fault injector is
// installed, an injection point that can fail the request with 503.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel, compared by identity
			panic(rec) // deliberate connection abort, not a bug
		}
		s.recovered.Inc()
		// Best-effort: if the handler already wrote a header this fails
		// silently, but the connection still closes with a broken response.
		WriteError(w, http.StatusInternalServerError, CodeInternal, fmt.Errorf("internal error: %v", rec))
	}()
	if err := s.faults.Hit(r.Context(), faults.SiteHTTPRequest); err != nil {
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, fmt.Errorf("injected fault: %w", err))
		return
	}
	s.mux.ServeHTTP(w, r)
}

// writeBackendError maps a backend failure onto the envelope (see Backend).
// Overload sheds carry the pool's backlog estimate as a retry hint (header
// and envelope body).
func writeBackendError(w http.ResponseWriter, err error) {
	var api *client.APIError
	var overload *runqueue.OverloadError
	switch {
	case errors.As(err, &api):
		if api.RetryAfterSeconds > 0 {
			WriteRetryError(w, api.Status, api.Code, errors.New(api.Message), api.RetryAfterSeconds)
		} else {
			WriteError(w, api.Status, api.Code, errors.New(api.Message))
		}
	case errors.As(err, &overload):
		WriteRetryError(w, http.StatusTooManyRequests, CodeOverloaded, err,
			int(overload.RetryAfter/time.Second))
	case errors.Is(err, runqueue.ErrNotFound):
		WriteError(w, http.StatusNotFound, CodeNotFound, err)
	case errors.Is(err, runqueue.ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, CodeDraining, err)
	default:
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, err)
	}
}

// DecodeBody decodes a JSON request body into v, capped at 1 MiB, with
// unknown fields rejected. The error it writes distinguishes oversized
// payloads (413) from malformed ones (400). Routes mounted with HandleFunc
// decode through it too.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// validDeadline rejects a negative deadline_s with 400.
func validDeadline(w http.ResponseWriter, deadlineS float64) bool {
	if deadlineS < 0 {
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("negative deadline_s %v", deadlineS))
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req client.SubmitRunRequest
	if !DecodeBody(w, r, &req) || !validDeadline(w, req.DeadlineS) {
		return
	}
	res, err := s.b.SubmitRun(r.Context(), req)
	if err != nil {
		writeBackendError(w, err)
		return
	}
	status := http.StatusAccepted
	if res.CacheHit {
		status = http.StatusOK
	}
	WriteJSON(w, status, res)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	p, err := parsePageParams(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	page, next := Paginate(s.b.ListRuns(r.Context()), p,
		func(v client.RunView) string { return v.ID },
		func(v client.RunView) bool { return p.State == "" || v.State == p.State })
	WriteJSON(w, http.StatusOK, client.RunPage{Runs: page, NextCursor: next})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	v, err := s.b.Run(r.Context(), r.PathValue("id"))
	if err != nil {
		writeBackendError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.b.CancelRun(r.Context(), r.PathValue("id"))
	if err != nil {
		writeBackendError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

// handleEvents streams the run's lifecycle as server-sent events: one
// `event: state` message per transition, ending after the terminal state.
// The 200 header goes out with the first event, so an unknown run can
// still answer 404.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, CodeInternal, errors.New("streaming unsupported"))
		return
	}
	started := false
	err := s.b.FollowRun(r.Context(), r.PathValue("id"), func(ev client.Event) {
		if !started {
			started = true
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
			w.WriteHeader(http.StatusOK)
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: state\ndata: %s\n\n", data)
		flusher.Flush()
	})
	if err != nil && !started && r.Context().Err() == nil {
		writeBackendError(w, err)
	}
}

// handleTrace serves a done run's decision trace: the ordered event stream
// explaining every scheduling decision ({"events": [...], "dropped": n},
// the pdpasim.DecisionTrace JSON schema), which a pool derives on read.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	raw, err := s.b.Trace(r.Context(), r.PathValue("id"))
	var api *client.APIError
	switch {
	case err == nil:
	case errors.As(err, &api) || errors.Is(err, runqueue.ErrNotFound):
		writeBackendError(w, err)
		return
	default:
		// The run is done and the request was valid: deriving its trace
		// failed on this side (the run timeout, say).
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

// handleReconcile bulk-reports run states for a recovering coordinator: a
// full view (result included) for every asked-about run the backend has a
// record of, and the IDs it knows nothing about — which the coordinator
// requeues elsewhere. The node is the authority: a run it finished while
// the coordinator was down comes back terminal with its exact result bytes,
// which is what keeps resumed fleet sweeps byte-identical.
func (s *Server) handleReconcile(w http.ResponseWriter, r *http.Request) {
	var req client.ReconcileRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	var resp client.ReconcileResult
	for _, id := range req.IDs {
		v, err := s.b.Run(r.Context(), id)
		if err != nil {
			resp.Missing = append(resp.Missing, id)
			continue
		}
		resp.Runs = append(resp.Runs, v)
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req client.SubmitSweepRequest
	if !DecodeBody(w, r, &req) || !validDeadline(w, req.DeadlineS) {
		return
	}
	res, err := s.b.SubmitSweep(r.Context(), req)
	if err != nil {
		writeBackendError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, res)
}

func (s *Server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	p, err := parsePageParams(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	page, next := Paginate(s.b.Sweeps(r.Context()), p,
		func(v client.SweepView) string { return v.ID },
		func(v client.SweepView) bool { return p.State == "" || v.State == p.State })
	WriteJSON(w, http.StatusOK, client.SweepPage{Sweeps: page, NextCursor: next})
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	v, err := s.b.Sweep(r.Context(), r.PathValue("id"))
	if err != nil {
		writeBackendError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	v, err := s.b.CancelSweep(r.Context(), r.PathValue("id"))
	if err != nil {
		writeBackendError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.b.Health()
	h.UptimeS = time.Since(s.started).Seconds()
	WriteJSON(w, http.StatusOK, h)
}
