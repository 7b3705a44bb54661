// Command scenario runs YAML stress/chaos scenarios over the v1 wire against
// an in-process pool (or, with a fleet: stanza, a coordinator and its
// nodes) and reports pass/fail.
//
// Usage:
//
//	scenario run [-seed N] [-json] [-o FILE] scenario.yaml...
//	scenario validate scenario.yaml...
//
// run executes each scenario deterministically — the same file at the same
// seed renders a byte-identical JSON report — and exits 0 when every
// scenario passes, 1 when any fails, 2 on malformed input or usage errors.
// validate only parses and schema-checks the files.
//
// -seed overrides each scenario's master seed (the fault injector and the
// derived seeds of generated arrival workloads); workload seeds pinned in
// the file are never touched, so assertions tied to a pinned workload
// survive the override.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pdpasim/internal/scenario"
)

const usage = `usage:
  scenario run [-seed N] [-json] [-o FILE] scenario.yaml...
  scenario validate scenario.yaml...

run executes scenarios over the v1 wire against an in-process pool, or
a coordinator and its nodes for a fleet: stanza, and reports pass/fail;
validate only parses and schema-checks them.

exit status: 0 all scenarios pass, 1 a scenario failed, 2 bad input.
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// multiReport is the JSON wrapper when several scenarios run in one
// invocation.
type multiReport struct {
	Pass      bool               `json:"pass"`
	Scenarios []*scenario.Report `json:"scenarios"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "validate":
		return cmdValidate(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return 0
	}
	fmt.Fprintf(stderr, "scenario: unknown command %q\n%s", args[0], usage)
	return 2
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "override each scenario's master seed")
	asJSON := fs.Bool("json", false, "render the report as JSON instead of text")
	outPath := fs.String("o", "", "write the report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintf(stderr, "scenario run: no scenario files given\n")
		return 2
	}

	scenarios, code := parseAll(files, stderr)
	if code != 0 {
		return code
	}
	var reports []*scenario.Report
	pass := true
	for _, s := range scenarios {
		if seedSet {
			s.Seed = *seed
		}
		rep := scenario.Run(s)
		if !rep.Pass {
			pass = false
		}
		reports = append(reports, rep)
	}

	out := io.Writer(stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "scenario run: %v\n", err)
			return 2
		}
		defer f.Close()
		out = f
	}
	if err := render(out, reports, pass, *asJSON); err != nil {
		fmt.Fprintf(stderr, "scenario run: %v\n", err)
		return 2
	}
	if !pass {
		return 1
	}
	return 0
}

func render(out io.Writer, reports []*scenario.Report, pass, asJSON bool) error {
	if asJSON {
		if len(reports) == 1 {
			return reports[0].WriteJSON(out)
		}
		b, err := json.MarshalIndent(multiReport{Pass: pass, Scenarios: reports}, "", "  ")
		if err != nil {
			return err
		}
		_, err = out.Write(append(b, '\n'))
		return err
	}
	for i, rep := range reports {
		if i > 0 {
			if _, err := fmt.Fprintln(out); err != nil {
				return err
			}
		}
		if err := rep.WriteText(out); err != nil {
			return err
		}
	}
	if len(reports) > 1 {
		verdict := "FAIL"
		if pass {
			verdict = "PASS"
		}
		if _, err := fmt.Fprintf(out, "\n%d scenarios: %s\n", len(reports), verdict); err != nil {
			return err
		}
	}
	return nil
}

func cmdValidate(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintf(stderr, "scenario validate: no scenario files given\n")
		return 2
	}
	if _, code := parseAll(files, stderr); code != 0 {
		return code
	}
	fmt.Fprintf(stdout, "%d scenario(s) valid\n", len(files))
	return 0
}

func parseAll(files []string, stderr io.Writer) ([]*scenario.Scenario, int) {
	var out []*scenario.Scenario
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(stderr, "scenario: %v\n", err)
			return nil, 2
		}
		s, err := scenario.Parse(src)
		if err != nil {
			fmt.Fprintf(stderr, "scenario: %s: %v\n", file, err)
			return nil, 2
		}
		out = append(out, s)
	}
	return out, 0
}
