// Package client is the Go client for the pdpad v1 API: submit runs and
// sweeps, poll or stream them to completion, walk the paginated lists, and
// drive a fleet coordinator's node plane — all with the v1 error envelope
// decoded into typed errors.
//
//	c := client.New("http://localhost:8080")
//	res, err := c.SubmitRun(ctx, client.SubmitRunRequest{
//		Workload: client.Workload{Mix: "w2", Seed: 7},
//		Options:  client.RunOptions{Policy: "pdpa"},
//	})
//	view, err := c.WaitRun(ctx, res.ID, 0)
//
// Every non-2xx response with a well-formed v1 envelope surfaces as an
// *APIError carrying the stable code, message, and retry hint; responses
// that violate the v1 contract — a non-envelope error body, or a 429 whose
// Retry-After header disagrees with its envelope hint — surface as a
// *ContractError, which is how load generators count contract violations.
// With WithRetries(n), retryable rejections (429 overloaded, 503 with a
// retry hint) are retried automatically after honoring the advertised hint.
//
// # Migrating from hand-rolled v1 HTTP
//
// The package replaces the per-tool HTTP mirrors that grew around the API
// (cmd/pdpaload carried its own envelope, submit, and run-view structs).
// The mapping is mechanical:
//
//   - POST /v1/runs + status switch  →  SubmitRun; errors.As on *APIError
//     replaces switching on the raw status code (err.Code "overloaded" is
//     a shed, err.RetryAfterSeconds the hint).
//   - GET /v1/runs/{id} poll loops   →  WaitRun (or Run for one probe).
//   - hand-parsed SSE "data:" lines  →  FollowRun with a callback.
//   - cursor-walking list loops      →  Runs / Sweeps (one page) or the
//     cursor loop in AllRuns.
//   - /metrics scrapes               →  Metrics, which sums each family's
//     series by base name.
//
// The wire types here are the v1 schema itself, not mirrors of it: the
// daemon's HTTP surface (internal/server), the fleet coordinator, and the
// runqueue pool build every request and response body from them, so there
// is no second definition to drift from. The server's wire-contract test
// replays one request script against a standalone daemon and a coordinator
// and pins the resulting bytes. The package imports nothing from the daemon
// internals, keeping it importable outside this module.
//
// # Coordinator restarts and retries
//
// A durable coordinator (one started with a store) may restart under a
// client's feet. The gap surfaces as plain transport errors — connection
// refused is not a v1 envelope, so WithRetries does not retry it; callers
// that must ride through a restart should loop on transport errors
// themselves. What the coordinator does guarantee is identity: run and
// sweep IDs survive the restart, so a WaitRun or WaitSweep resumed against
// the recovered coordinator picks up the same run, and results adopted
// from the nodes during reconciliation are byte-identical to what an
// uninterrupted coordinator would have returned. ReconcileRuns is the
// recovery plane's bulk probe — a recovering coordinator calls it on every
// node daemon, which is why revision-2 nodes must serve it.
package client
