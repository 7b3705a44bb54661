package main

// The traced run's instrumentation. Everything here lives in the benchmark
// and is installed from outside the program: a span around each client
// call, a timing http.Handler around each server, a counting RoundTripper
// under the coordinator, and a timing runqueue.Config.Simulate. An
// untraced run installs none of it (every method is a no-op on a nil
// *tracer), so the end-to-end numbers carry no tracing cost.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries "<trace>/<span>" from a caller to the server it calls,
// so the server's span nests under the caller's.
const spanHeader = "Pdpabench-Span"

// span is one timed interval. Trace is the op index the span belongs to
// (-1 outside any op); Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Status is the HTTP status of a server span (0 for other spans).
	Status int `json:"status,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRef identifies a span across a context or an HTTP hop.
type spanRef struct{ trace, id int64 }

type spanKey struct{}

func refFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// simCall is one timed runqueue.Config.Simulate call, keyed by spec key.
type simCall struct{ start, end int64 }

// tracer keeps every span in memory until the run ends. It records only
// while active, so setup and recovery traffic stay out of the window's
// numbers.
type tracer struct {
	active atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	sims  map[string]simCall

	nodeCalls atomic.Int64 // coordinator → node requests
	nodeBytes atomic.Int64 // response bytes the coordinator read from nodes
}

func newTracer() *tracer { return &tracer{sims: map[string]simCall{}} }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// start opens a span named name under the span in ctx (or as the root of op
// trace when ctx carries none) and returns the context to pass downstream
// and the function that closes the span.
func (t *tracer) start(ctx context.Context, name string, trace int64) (context.Context, func()) {
	if t == nil || !t.active.Load() {
		return ctx, func() {}
	}
	s := span{Name: name, Trace: trace, ID: t.nextID.Add(1), Start: time.Now().UnixNano()}
	if parent, ok := refFrom(ctx); ok {
		s.Trace, s.Parent = parent.trace, parent.id
	}
	ctx = context.WithValue(ctx, spanKey{}, spanRef{s.Trace, s.ID})
	return ctx, func() {
		s.End = time.Now().UnixNano()
		t.record(s)
	}
}

func (t *tracer) setActive(on bool) {
	if t != nil {
		t.active.Store(on)
	}
}

// interval records a finished span outside any op (the serial pass's).
func (t *tracer) interval(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.record(span{Name: name, Trace: -1, ID: t.nextID.Add(1),
		Start: start.UnixNano(), End: start.Add(d).UnixNano()})
}

// simulated records one Simulate call.
func (t *tracer) simulated(key string, start, end time.Time) {
	if !t.active.Load() {
		return
	}
	t.mu.Lock()
	t.sims[key] = simCall{start.UnixNano(), end.UnixNano()}
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// newHTTPClient returns a client with its own transport, so closing its
// idle connections touches nothing else. It holds at most conns
// connections, one per closed-loop client: an unbounded transport dials a
// spare connection whenever a request races a connection's return to the
// pool, and a spare that never carries a request holds up
// http.Server.Shutdown.
func newHTTPClient(conns int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = conns
	t.MaxIdleConnsPerHost = conns
	return &http.Client{Transport: t}
}

// client returns the load generator's HTTP client for conns closed-loop
// clients, wrapped to carry the caller's span across the hop when tracing.
func (t *tracer) client(conns int) *http.Client {
	hc := newHTTPClient(conns)
	if t != nil {
		hc.Transport = &spanTransport{t: t, base: hc.Transport}
	}
	return hc
}

// spanTransport stamps the span header on outgoing requests. With node set
// it is the coordinator's transport: every request is also counted and
// timed as a fleet.node_call span, and the header names that span.
type spanTransport struct {
	t    *tracer
	base http.RoundTripper
	node bool
}

func (s *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	var end func()
	if s.node && s.t.active.Load() {
		s.t.nodeCalls.Add(1)
		ctx, end = s.t.start(ctx, "fleet.node_call", -1)
	}
	if ref, ok := refFrom(ctx); ok {
		req = req.Clone(ctx)
		req.Header.Set(spanHeader, strconv.FormatInt(ref.trace, 10)+"/"+strconv.FormatInt(ref.id, 10))
	}
	resp, err := s.base.RoundTrip(req)
	if end == nil {
		return resp, err
	}
	if err != nil {
		end()
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &s.t.nodeBytes, end: end}
	return resp, nil
}

// CloseIdleConnections reaches the base transport, so http.Client's
// CloseIdleConnections (which the coordinator's Close calls) drops its
// pooled connections. A connection left open there, never used, holds up
// the node's http.Server.Shutdown for 5 s.
func (s *spanTransport) CloseIdleConnections() {
	if c, ok := s.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// countingBody counts the bytes read from a node response and closes the
// node-call span when the caller closes the body.
type countingBody struct {
	io.ReadCloser
	n    *atomic.Int64
	end  func()
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// wrap returns h behind a timing handler whose spans are named
// "<layer>.<route>" (route is submit, get, events, or other). The handler
// joins the caller's trace from the span header and passes its own span
// downstream in the request context. A nil tracer returns h unchanged.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{Name: layer + "." + route(r), Trace: -1, ID: t.nextID.Add(1)}
		if v := r.Header.Get(spanHeader); v != "" {
			tr, id, _ := strings.Cut(v, "/")
			s.Trace, _ = strconv.ParseInt(tr, 10, 64)
			s.Parent, _ = strconv.ParseInt(id, 10, 64)
		}
		r = r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{s.Trace, s.ID}))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.Start = time.Now().UnixNano()
		h.ServeHTTP(sw, r)
		s.End = time.Now().UnixNano()
		s.Status = sw.status
		t.record(s)
	})
}

// route names the v1 endpoints the workloads exercise.
func route(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/v1/runs")
	switch {
	case p == r.URL.Path:
		return "other"
	case p == "" && r.Method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.Count(p, "/") == 1 && r.Method == http.MethodGet:
		return "get"
	}
	return "other"
}

// statusWriter captures the status code and keeps SSE flushing working.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// selfTimes attributes every instant of each trace to the innermost span
// active at that instant and returns the time attributed to each span.
// Where children nest inside their parent this is the span's duration
// minus its children's; where spans overlap without nesting — a pool
// attempt that starts while the submit call is still returning — the
// overlap is counted once, for the deeper span, so an op's self times sum
// to its latency.
func selfTimes(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	byTrace := map[int64][]int{}
	index := map[int64]int{}
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
		index[s.ID] = i
	}
	depth := make([]int, len(spans))
	for i := range spans {
		for p := spans[i].Parent; p != 0 && depth[i] < len(spans); depth[i]++ {
			j, ok := index[p]
			if !ok {
				break
			}
			p = spans[j].Parent
		}
	}
	type edge struct {
		at    int64
		i     int
		start bool
	}
	for _, idx := range byTrace {
		edges := make([]edge, 0, 2*len(idx))
		for _, i := range idx {
			edges = append(edges, edge{spans[i].Start, i, true}, edge{spans[i].End, i, false})
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].at < edges[b].at })
		active := map[int]bool{}
		prev := int64(0)
		for _, e := range edges {
			if len(active) > 0 && e.at > prev {
				inner := -1
				for i := range active {
					if inner < 0 || depth[i] > depth[inner] ||
						(depth[i] == depth[inner] && spans[i].Start > spans[inner].Start) {
						inner = i
					}
				}
				out[inner] += time.Duration(e.at - prev)
			}
			prev = e.at
			if e.start {
				active[e.i] = true
			} else {
				delete(active, e.i)
			}
		}
	}
	return out
}

// writeSpans writes one span per line to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
