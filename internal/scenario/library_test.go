package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// bundledScenarios lists scenarios/*.yaml in name order.
func bundledScenarios(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// TestBundledScenarioLibrary runs every scenario under scenarios/ twice: each
// must pass, and the two JSON reports must be byte-identical — the
// determinism contract CI's scenario-smoke job re-checks from the CLI.
func TestBundledScenarioLibrary(t *testing.T) {
	files := bundledScenarios(t)
	if len(files) < 8 {
		t.Fatalf("found %d bundled scenarios, want at least 8", len(files))
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			render := func() []byte {
				s, err := Parse(src)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				rep := Run(s)
				if !rep.Pass {
					var buf bytes.Buffer
					rep.WriteText(&buf)
					t.Fatalf("scenario failed:\n%s", buf.String())
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			first := render()
			if second := render(); !bytes.Equal(first, second) {
				t.Fatalf("reports diverge across replays:\n--- first\n%s\n--- second\n%s", first, second)
			}
		})
	}
}

// TestPoolFleetDifferential runs every bundled pool scenario as written and
// again behind a one-node fleet: both go through the same runner over the v1
// wire, so the two must record the same submissions and assertion verdicts.
func TestPoolFleetDifferential(t *testing.T) {
	ran := 0
	for _, file := range bundledScenarios(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if pool.Fleet != nil {
			continue
		}
		fleet, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		fleet.Fleet = &FleetParams{Nodes: 1}
		ran++
		t.Run(filepath.Base(file), func(t *testing.T) {
			p, f := Run(pool), Run(fleet)
			if p.Error != "" || f.Error != "" {
				t.Fatalf("pool error %q, fleet error %q", p.Error, f.Error)
			}
			if !reflect.DeepEqual(p.Submissions, f.Submissions) {
				t.Errorf("submissions differ:\npool  %+v\nfleet %+v", p.Submissions, f.Submissions)
			}
			if !reflect.DeepEqual(p.Assertions, f.Assertions) {
				t.Errorf("assertions differ:\npool  %+v\nfleet %+v", p.Assertions, f.Assertions)
			}
		})
	}
	if ran < 3 {
		t.Fatalf("compared %d pool scenarios, want at least 3", ran)
	}
}
