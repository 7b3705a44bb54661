package server

// Pagination for the list endpoints. Both collections are ordered newest
// first by zero-padded sequence IDs, so "everything strictly older than the
// last ID the client saw" is a stable page boundary even while new work
// arrives: new runs get larger IDs and never shift an old cursor's page.
// The cursor is opaque to clients — base64url over a versioned payload —
// so the ordering scheme can change without breaking them.
//
// The exported half of this file is the v1 pagination convention itself:
// routes mounted with HandleFunc that serve v1-shaped collections (the fleet
// coordinator's /v1/nodes) parse and paginate with the same helpers so every
// list endpoint behaves identically.

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"pdpasim/internal/runqueue"
)

const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
	cursorVersion    = "v1:"
)

// PageParams are the parsed list-endpoint query parameters (limit=, cursor=,
// state=).
type PageParams struct {
	Limit int
	// AfterID is the decoded cursor: only items with ID strictly less than
	// it (strictly older, in newest-first order) belong to the page. Empty
	// means start from the newest.
	AfterID string
	// State filters to items in that lifecycle state; empty means all.
	State string
}

// ParsePageParams reads limit, cursor, and state from the query string.
// validStates is the endpoint's state vocabulary; a state= value outside it
// is an error naming the alternatives.
func ParsePageParams(r *http.Request, validStates ...string) (PageParams, error) {
	p := PageParams{Limit: defaultPageLimit}
	q := r.URL.Query()
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return p, fmt.Errorf("limit %q: want a positive integer", raw)
		}
		if n > maxPageLimit {
			n = maxPageLimit
		}
		p.Limit = n
	}
	if raw := q.Get("cursor"); raw != "" {
		id, err := decodeCursor(raw)
		if err != nil {
			return p, err
		}
		p.AfterID = id
	}
	if raw := q.Get("state"); raw != "" {
		ok := false
		for _, s := range validStates {
			if raw == s {
				ok = true
				break
			}
		}
		if !ok {
			return p, fmt.Errorf("state %q: want one of %s", raw, strings.Join(validStates, ", "))
		}
		p.State = raw
	}
	return p, nil
}

// runStates is the lifecycle vocabulary shared by the run and sweep lists.
var runStates = []string{
	string(runqueue.Queued), string(runqueue.Running),
	string(runqueue.Done), string(runqueue.Failed), string(runqueue.Canceled),
}

// parsePageParams parses with the run/sweep state vocabulary.
func parsePageParams(r *http.Request) (PageParams, error) {
	return ParsePageParams(r, runStates...)
}

// EncodeCursor renders the opaque next_cursor for the page ending at lastID.
func EncodeCursor(lastID string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(cursorVersion + lastID))
}

func decodeCursor(raw string) (string, error) {
	b, err := base64.RawURLEncoding.DecodeString(raw)
	if err != nil {
		return "", fmt.Errorf("cursor %q: not a valid cursor", raw)
	}
	s := string(b)
	if !strings.HasPrefix(s, cursorVersion) {
		return "", fmt.Errorf("cursor %q: unknown cursor version", raw)
	}
	return strings.TrimPrefix(s, cursorVersion), nil
}

// Paginate selects the page from a newest-first item list. keep reports
// whether an item passes the state filter; id yields its ordering key.
// It returns the page's items and the next cursor ("" on the last page).
func Paginate[T any](items []T, p PageParams, id func(T) string, keep func(T) bool) ([]T, string) {
	page := make([]T, 0, min(p.Limit, len(items)))
	next := ""
	for _, it := range items {
		if p.AfterID != "" && id(it) >= p.AfterID {
			continue // at or before the cursor position
		}
		if !keep(it) {
			continue
		}
		if len(page) == p.Limit {
			// A further match exists, so this page is not the last one; the
			// cursor points at the page's final item and the next page
			// resumes right after it, filters included.
			next = EncodeCursor(id(page[len(page)-1]))
			break
		}
		page = append(page, it)
	}
	return page, next
}
