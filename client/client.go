package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxErrorBody bounds how much of an error response (and of a /metrics
// scrape) the client reads; success bodies are read in full.
const maxErrorBody = 1 << 20

// Client talks to one pdpad daemon (standalone, node, or coordinator).
// The zero value is not usable; create with New. All methods are safe for
// concurrent use.
type Client struct {
	base         string
	hc           *http.Client
	retries      int
	retryWaitCap time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client used for every request (the
// default is a fresh client with no timeout — pass one with a timeout, or
// bound calls with contexts).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries makes retryable rejections — 429 sheds and 503s carrying a
// retry hint — retry up to n times, sleeping the advertised
// retry_after_seconds (capped by WithRetryWaitCap) between attempts. The
// default 0 surfaces every rejection as an *APIError.
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithRetryWaitCap bounds the per-attempt retry sleep (default 30s).
func WithRetryWaitCap(d time.Duration) Option {
	return func(c *Client) { c.retryWaitCap = d }
}

// New returns a client for the daemon at base (e.g. "http://localhost:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:         strings.TrimRight(base, "/"),
		hc:           &http.Client{},
		retryWaitCap: 30 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the daemon base URL the client targets.
func (c *Client) Base() string { return c.base }

// APIError is a non-2xx response carrying a well-formed v1 error envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the envelope's stable machine-readable discriminator
	// ("overloaded", "draining", "not_found", ...).
	Code string
	// Message is the envelope's free-form message.
	Message string
	// RetryAfterSeconds is the envelope's retry hint; 0 means none.
	RetryAfterSeconds int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("pdpad: %s (%d): %s", e.Code, e.Status, e.Message)
}

// IsShed reports whether the error is an admission rejection worth
// retrying after the advertised pause (a 429 shed).
func (e *APIError) IsShed() bool {
	return e.Status == http.StatusTooManyRequests
}

// ContractError is a response outside the v1 contract: a non-2xx without a
// well-formed envelope, a 2xx whose body does not decode, or a 429 whose
// Retry-After header disagrees with its envelope hint.
type ContractError struct {
	Status int
	Detail string
	// Body is the offending response body, bounded.
	Body []byte
}

func (e *ContractError) Error() string {
	return fmt.Sprintf("pdpad: response outside the v1 contract (status %d): %s", e.Status, e.Detail)
}

// Do performs one JSON round trip against the v1 surface: method and path
// (e.g. "GET", "/v1/runs/run-000001"), an optional request body in, an
// optional response destination out. An out of type *[]byte receives the
// success body verbatim once it is checked to be well-formed JSON. Non-2xx
// responses become *APIError or *ContractError; retryable rejections honor
// the client's retry budget.
// Do is exported as the escape hatch for endpoints without a typed method.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("pdpad: encoding request: %w", err)
		}
	}
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, body, out)
		var apiErr *APIError
		if err == nil || attempt >= c.retries || !errors.As(err, &apiErr) {
			return err
		}
		if !retryable(apiErr) {
			return err
		}
		wait := time.Duration(apiErr.RetryAfterSeconds) * time.Second
		if wait > c.retryWaitCap {
			wait = c.retryWaitCap
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// retryable reports whether an envelope error is worth retrying after its
// advertised pause: sheds always are, 503s only when they hint.
func retryable(e *APIError) bool {
	switch e.Status {
	case http.StatusTooManyRequests:
		return true
	case http.StatusServiceUnavailable:
		return e.RetryAfterSeconds > 0
	}
	return false
}

// once performs a single attempt of Do.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("pdpad: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("pdpad: %s %s: %w", method, path, err)
	}
	ok := resp.StatusCode >= 200 && resp.StatusCode < 300
	// A success body is read in full: a run view, result or trace has no
	// size bound. Only error bodies are capped.
	var src io.Reader = resp.Body
	if !ok {
		src = io.LimitReader(resp.Body, maxErrorBody)
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	_, readErr := buf.ReadFrom(src)
	resp.Body.Close()
	if readErr != nil {
		return fmt.Errorf("pdpad: reading response: %w", readErr)
	}
	// json.Unmarshal copies what it keeps; an error keeps a copy of the body.
	data := buf.Bytes()
	if ok {
		switch out := out.(type) {
		case nil:
			return nil
		case *[]byte:
			if json.Valid(data) {
				*out = bytes.Clone(data)
				return nil
			}
		}
		if err := json.Unmarshal(data, out); err != nil {
			return &ContractError{Status: resp.StatusCode,
				Detail: fmt.Sprintf("undecodable success body: %v", err), Body: bytes.Clone(data)}
		}
		return nil
	}
	return decodeAPIError(resp, bytes.Clone(data))
}

// bodyBufs recycles response-body buffers: reading each body into a fresh
// one is most of what a cache-hit GET allocates.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeAPIError turns a non-2xx response into *APIError, or *ContractError
// when the response violates the envelope contract.
func decodeAPIError(resp *http.Response, data []byte) error {
	var env ErrorResponse
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Code == "" {
		return &ContractError{Status: resp.StatusCode,
			Detail: "non-2xx without a well-formed error envelope", Body: data}
	}
	apiErr := &APIError{
		Status:            resp.StatusCode,
		Code:              env.Error.Code,
		Message:           env.Error.Message,
		RetryAfterSeconds: env.Error.RetryAfterSeconds,
	}
	// The shed contract: a 429 must advertise a positive hint, identically
	// in the envelope and the Retry-After header.
	if resp.StatusCode == http.StatusTooManyRequests {
		header := resp.Header.Get("Retry-After")
		if apiErr.RetryAfterSeconds < 1 || header != strconv.Itoa(apiErr.RetryAfterSeconds) {
			return &ContractError{Status: resp.StatusCode,
				Detail: fmt.Sprintf("429 without a coherent retry hint (header %q, envelope %d)",
					header, apiErr.RetryAfterSeconds),
				Body: data}
		}
	}
	return apiErr
}

// Version fetches GET /v1/version.
func (c *Client) Version(ctx context.Context) (VersionInfo, error) {
	var v VersionInfo
	err := c.Do(ctx, http.MethodGet, "/v1/version", nil, &v)
	return v, err
}

// Health fetches GET /healthz.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.Do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// SubmitRun submits one run.
func (c *Client) SubmitRun(ctx context.Context, req SubmitRunRequest) (SubmitResult, error) {
	var res SubmitResult
	err := c.Do(ctx, http.MethodPost, "/v1/runs", req, &res)
	return res, err
}

// Run fetches one run's status (result included once done).
func (c *Client) Run(ctx context.Context, id string) (RunView, error) {
	var v RunView
	err := c.Do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id), nil, &v)
	return v, err
}

// CancelRun cancels a queued or running run.
func (c *Client) CancelRun(ctx context.Context, id string) (RunView, error) {
	var v RunView
	err := c.Do(ctx, http.MethodDelete, "/v1/runs/"+url.PathEscape(id), nil, &v)
	return v, err
}

// Trace fetches a done run's decision trace JSON, byte for byte as the
// daemon served it. The daemon derives it on read by re-simulating the
// run's spec with tracing on, so it is the trace the run records, at the
// daemon's -trace-limit.
func (c *Client) Trace(ctx context.Context, id string) (json.RawMessage, error) {
	var raw []byte
	err := c.Do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id)+"/trace", nil, &raw)
	return raw, err
}

// ReconcileRuns asks a node daemon for the authoritative state of each run
// in ids (POST /v1/runs/reconcile). A recovering coordinator uses this to
// adopt results completed while it was down and to learn which placements
// the node has no record of.
func (c *Client) ReconcileRuns(ctx context.Context, ids []string) (ReconcileResult, error) {
	var res ReconcileResult
	err := c.Do(ctx, http.MethodPost, "/v1/runs/reconcile", ReconcileRequest{IDs: ids}, &res)
	return res, err
}

// ListOptions parameterize one page of a list endpoint.
type ListOptions struct {
	// Limit is the page size (0 = server default).
	Limit int
	// Cursor resumes after a previous page's NextCursor.
	Cursor string
	// State filters to one lifecycle state.
	State string
}

func (o ListOptions) query() string {
	q := url.Values{}
	if o.Limit > 0 {
		q.Set("limit", strconv.Itoa(o.Limit))
	}
	if o.Cursor != "" {
		q.Set("cursor", o.Cursor)
	}
	if o.State != "" {
		q.Set("state", o.State)
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// Runs fetches one page of runs, newest first.
func (c *Client) Runs(ctx context.Context, opts ListOptions) (RunPage, error) {
	var page RunPage
	err := c.Do(ctx, http.MethodGet, "/v1/runs"+opts.query(), nil, &page)
	return page, err
}

// AllRuns walks every page of the run list and returns the concatenation,
// newest first.
func (c *Client) AllRuns(ctx context.Context, opts ListOptions) ([]RunView, error) {
	var all []RunView
	for {
		page, err := c.Runs(ctx, opts)
		if err != nil {
			return all, err
		}
		all = append(all, page.Runs...)
		if page.NextCursor == "" {
			return all, nil
		}
		opts.Cursor = page.NextCursor
	}
}

// WaitRun polls a run until it reaches a terminal state and returns the
// final view. poll is the probe cadence (0 = 20ms). The context bounds the
// wait.
func (c *Client) WaitRun(ctx context.Context, id string, poll time.Duration) (RunView, error) {
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	for {
		v, err := c.Run(ctx, id)
		if err != nil {
			return v, err
		}
		if v.Terminal() {
			return v, nil
		}
		t := time.NewTimer(poll)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return v, ctx.Err()
		}
	}
}

// SubmitSweep submits one grid.
func (c *Client) SubmitSweep(ctx context.Context, req SubmitSweepRequest) (SweepSubmitResult, error) {
	var res SweepSubmitResult
	err := c.Do(ctx, http.MethodPost, "/v1/sweeps", req, &res)
	return res, err
}

// Sweep fetches one sweep's status (cells included once done).
func (c *Client) Sweep(ctx context.Context, id string) (SweepView, error) {
	var v SweepView
	err := c.Do(ctx, http.MethodGet, "/v1/sweeps/"+url.PathEscape(id), nil, &v)
	return v, err
}

// CancelSweep cancels a sweep's remaining members.
func (c *Client) CancelSweep(ctx context.Context, id string) (SweepView, error) {
	var v SweepView
	err := c.Do(ctx, http.MethodDelete, "/v1/sweeps/"+url.PathEscape(id), nil, &v)
	return v, err
}

// Sweeps fetches one page of sweeps, newest first.
func (c *Client) Sweeps(ctx context.Context, opts ListOptions) (SweepPage, error) {
	var page SweepPage
	err := c.Do(ctx, http.MethodGet, "/v1/sweeps"+opts.query(), nil, &page)
	return page, err
}

// WaitSweep polls a sweep until every member is terminal and returns the
// final view. poll is the probe cadence (0 = 20ms).
func (c *Client) WaitSweep(ctx context.Context, id string, poll time.Duration) (SweepView, error) {
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	for {
		v, err := c.Sweep(ctx, id)
		if err != nil {
			return v, err
		}
		if Terminal(v.State) {
			return v, nil
		}
		t := time.NewTimer(poll)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return v, ctx.Err()
		}
	}
}

// Nodes fetches one page of a coordinator's node list.
func (c *Client) Nodes(ctx context.Context, opts ListOptions) (NodePage, error) {
	var page NodePage
	err := c.Do(ctx, http.MethodGet, "/v1/nodes"+opts.query(), nil, &page)
	return page, err
}

// CordonNode stops new placements on a node; running and queued work stays.
func (c *Client) CordonNode(ctx context.Context, id string) (NodeView, error) {
	var v NodeView
	err := c.Do(ctx, http.MethodPost, "/v1/nodes/"+url.PathEscape(id)+"/cordon", nil, &v)
	return v, err
}

// UncordonNode reverses CordonNode.
func (c *Client) UncordonNode(ctx context.Context, id string) (NodeView, error) {
	var v NodeView
	err := c.Do(ctx, http.MethodPost, "/v1/nodes/"+url.PathEscape(id)+"/uncordon", nil, &v)
	return v, err
}

// DrainNode cordons a node and requeues its placed runs onto other nodes.
func (c *Client) DrainNode(ctx context.Context, id string) (NodeView, error) {
	var v NodeView
	err := c.Do(ctx, http.MethodPost, "/v1/nodes/"+url.PathEscape(id)+"/drain", nil, &v)
	return v, err
}

// Metrics scrapes GET /metrics and sums each family's series by base name
// (labels collapsed) — the slice of Prometheus exposition a load test or
// smoke script wants to assert on.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("pdpad: building request: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("pdpad: GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	if err != nil {
		return nil, fmt.Errorf("pdpad: reading metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &ContractError{Status: resp.StatusCode, Detail: "metrics scrape failed", Body: data}
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, found := strings.Cut(line, " ")
		if !found {
			continue
		}
		base, _, _ := strings.Cut(name, "{")
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
			out[base] += v
		}
	}
	return out, nil
}

// CloseIdleConnections drops pooled keep-alive connections so their
// background goroutines exit — call before a goroutine-leak check.
func (c *Client) CloseIdleConnections() { c.hc.CloseIdleConnections() }
