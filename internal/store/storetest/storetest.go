// Package storetest holds the store-compatibility test helpers the run
// backends share: replay a fixed record stream into a fresh store, then
// compare what the backend recovered from it, over HTTP, to golden bodies.
// Run the tests with -update to rewrite the goldens.
package storetest

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"pdpasim/internal/store"
)

var update = flag.Bool("update", false, "rewrite the store-compat golden bodies")

// Replay lays a {kind, payload} JSON-lines record stream down in a fresh
// store and returns its directory, for the backend under test to recover
// the records from exactly as it would a store an earlier pdpad wrote.
func Replay(t testing.TB, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Kind    string          `json:"kind"`
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := st.Append(store.Record{Kind: line.Kind, Payload: line.Payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// CheckTranscript GETs each path under base and compares the statuses and
// bodies, byte for byte, to the golden file.
func CheckTranscript(t testing.TB, golden, base string, paths ...string) {
	t.Helper()
	var b strings.Builder
	for _, path := range paths {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "GET %s -> %d\n%s\n", path, resp.StatusCode, body)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("recovered bodies drifted from %s\n--- got\n%s", golden, got)
	}
}
