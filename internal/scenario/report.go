package scenario

// The report is the scenario's contract with CI: it contains no wall-clock
// times, no absolute paths, and no map-ordered output, so the same scenario
// at the same seed renders byte-identical reports across runs, machines, and
// the race detector.

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report is the outcome of one scenario execution.
type Report struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Seed        int64  `json:"seed"`
	// Pass is true when the scenario ran to completion and every assertion
	// held.
	Pass bool `json:"pass"`
	// Error is set when the scenario itself failed to run (a wait that never
	// settled, a submit the runner could not place); assertions are then not
	// evaluated.
	Error       string      `json:"error,omitempty"`
	Submissions []SubReport `json:"submissions"`
	// Sweeps records named submit_sweep events.
	Sweeps     []SweepReport  `json:"sweeps,omitempty"`
	Assertions []AssertReport `json:"assertions,omitempty"`
}

// SweepReport records how one named sweep fared.
type SweepReport struct {
	Name  string `json:"name"`
	ID    string `json:"id"`
	State string `json:"state,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// SubReport records how one named submission fared.
type SubReport struct {
	Name string `json:"name"`
	// ID is the pool run ID; empty when the submission was rejected.
	ID string `json:"id,omitempty"`
	// Admission is fresh, cache_hit, dedup, or shed.
	Admission string `json:"admission"`
	// State is the run's state at report time (terminal after the drain).
	State string `json:"state,omitempty"`
	// Error is the run's failure message, or the rejection message.
	Error string `json:"error,omitempty"`
}

// AssertReport records one assertion's verdict.
type AssertReport struct {
	Kind     string `json:"kind"`
	Detail   string `json:"detail"`
	Observed string `json:"observed,omitempty"`
	Pass     bool   `json:"pass"`
}

// WriteJSON renders the report as indented JSON with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText renders the human-readable report.
func (r *Report) WriteText(w io.Writer) error {
	verdict := "FAIL"
	if r.Pass {
		verdict = "PASS"
	}
	if _, err := fmt.Fprintf(w, "scenario %s: %s (seed %d)\n", r.Scenario, verdict, r.Seed); err != nil {
		return err
	}
	if r.Description != "" {
		fmt.Fprintf(w, "  %s\n", r.Description)
	}
	if r.Error != "" {
		fmt.Fprintf(w, "  error: %s\n", r.Error)
	}
	if len(r.Submissions) > 0 {
		fmt.Fprintf(w, "  submissions:\n")
		nameW, idW, admW := 4, 2, 9
		for _, s := range r.Submissions {
			nameW = max(nameW, len(s.Name))
			idW = max(idW, len(s.ID))
			admW = max(admW, len(s.Admission))
		}
		for _, s := range r.Submissions {
			id, state := s.ID, s.State
			if id == "" {
				id = "-"
			}
			if state == "" {
				state = "-"
			}
			fmt.Fprintf(w, "    %-*s  %-*s  %-*s  %s", nameW, s.Name, idW, id, admW, s.Admission, state)
			if s.Error != "" {
				fmt.Fprintf(w, "  (%s)", s.Error)
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Sweeps) > 0 {
		fmt.Fprintf(w, "  sweeps:\n")
		for _, s := range r.Sweeps {
			state := s.State
			if state == "" {
				state = "-"
			}
			fmt.Fprintf(w, "    %s  %s  %s  %d/%d\n", s.Name, s.ID, state, s.Done, s.Total)
		}
	}
	if len(r.Assertions) > 0 {
		fmt.Fprintf(w, "  assertions:\n")
		for _, a := range r.Assertions {
			mark := "FAIL"
			if a.Pass {
				mark = "ok  "
			}
			fmt.Fprintf(w, "    [%s] %s: %s", mark, a.Kind, a.Detail)
			if a.Observed != "" {
				fmt.Fprintf(w, " — %s", a.Observed)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
