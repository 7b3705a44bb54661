package server

// The unified v1 error envelope. Every non-2xx JSON response has the shape
//
//	{"error": {"code": "...", "message": "...", "retry_after_seconds": N}}
//
// where code is a stable machine-readable discriminator (the message is
// free-form and may change between releases) and retry_after_seconds is
// present exactly when the request is worth retrying after a pause — it
// mirrors the Retry-After header on the same response.

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"pdpasim/client"
)

// Stable error codes, one per way a v1 request can fail.
const (
	// CodeInvalidRequest: the request was malformed — bad JSON, unknown
	// fields, an invalid spec, or bad query parameters (400).
	CodeInvalidRequest = "invalid_request"
	// CodeNotFound: no run or sweep with that ID (404).
	CodeNotFound = "not_found"
	// CodePayloadTooLarge: the request body exceeded the submission size
	// cap (413).
	CodePayloadTooLarge = "payload_too_large"
	// CodeOverloaded: the queue was full and the submission was shed;
	// retry_after_seconds carries the pool's backlog estimate (429).
	CodeOverloaded = "overloaded"
	// CodeDraining: the daemon is shutting down and not accepting work (503).
	CodeDraining = "draining"
	// CodeUnavailable: an injected fault or other transient server-side
	// condition failed the request (503).
	CodeUnavailable = "unavailable"
	// CodeInternal: a handler bug; the panic was recovered and counted (500).
	CodeInternal = "internal"
	// CodeIncompatibleRevision: a fleet node tried to register with a
	// coordinator speaking a different API revision (400).
	CodeIncompatibleRevision = "incompatible_revision"
	// CodeNoHealthyNodes: the coordinator has no healthy node to place the
	// run on — every node is cordoned, draining, unhealthy, or gone (503).
	CodeNoHealthyNodes = "no_healthy_nodes"
	// CodeNodeUnreachable: the node owning the requested resource did not
	// answer the coordinator's proxied request (502).
	CodeNodeUnreachable = "node_unreachable"
)

// WriteError answers with the error envelope (client.ErrorResponse). It is
// exported for routes mounted with HandleFunc (the fleet coordinator's node
// plane), so they emit the exact same envelope as the v1 routes.
func WriteError(w http.ResponseWriter, status int, code string, err error) {
	WriteJSON(w, status, client.ErrorResponse{Error: client.ErrorBody{Code: code, Message: err.Error()}})
}

// WriteRetryError answers with the error envelope plus a retry hint, in
// both the Retry-After header and the body.
func WriteRetryError(w http.ResponseWriter, status int, code string, err error, retryAfterSeconds int) {
	if retryAfterSeconds < 1 {
		retryAfterSeconds = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	WriteJSON(w, status, client.ErrorResponse{Error: client.ErrorBody{
		Code: code, Message: err.Error(), RetryAfterSeconds: retryAfterSeconds,
	}})
}

// WriteJSON writes v as indented JSON with the given status — the response
// framing every v1 endpoint uses.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	in := indenters.Get().(*indenter)
	in.w = w
	err := in.enc.Encode(v)
	in.w = nil
	// An Encoder that failed a write keeps failing every later Encode, so
	// only an encoder that wrote its whole body goes back to the pool.
	if err == nil {
		indenters.Put(in)
	}
}

// indenter is a reusable indenting encoder writing to w. A json.Encoder
// keeps its indent buffer across calls, so pooling it spares each response
// a fresh buffer the size of its body, garbage that on a cache-hit read
// path otherwise drives most of the daemon's collections.
type indenter struct {
	w   io.Writer
	enc *json.Encoder
}

func (in *indenter) Write(b []byte) (int, error) { return in.w.Write(b) }

var indenters = sync.Pool{New: func() any {
	in := &indenter{}
	in.enc = json.NewEncoder(in)
	in.enc.SetIndent("", "  ")
	return in
}}
