package experiments

import (
	"fmt"
	"strings"

	"pdpasim/internal/app"
	"pdpasim/internal/sim"
	"pdpasim/internal/system"
	"pdpasim/internal/trace"
	"pdpasim/internal/workload"
)

// Fig3 reproduces the speedup curves of the four applications.
func Fig3(o Options) (Result, error) {
	o = o.withDefaults()
	var sb strings.Builder
	procs := []int{1, 2, 4, 8, 12, 16, 20, 24, 30, 40, 50, 60}
	fmt.Fprintf(&sb, "%-9s", "procs")
	for _, p := range procs {
		fmt.Fprintf(&sb, "%7d", p)
	}
	sb.WriteByte('\n')
	for _, c := range app.AllClasses() {
		prof := app.ProfileFor(c)
		fmt.Fprintf(&sb, "%-9s", prof.Name)
		for _, p := range procs {
			fmt.Fprintf(&sb, "%7.1f", prof.Speedup.Speedup(p))
		}
		sb.WriteByte('\n')
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "shape checks: swim superlinear on 8..16 = %v; "+
		"bt eff(30) = %.2f; hydro2d 0.7-frontier = %d procs; apsi max speedup = %.2f\n",
		app.Efficiency(app.ProfileFor(app.Swim).Speedup, 12) > 1,
		app.Efficiency(app.ProfileFor(app.BT).Speedup, 30),
		app.MaxProcsAtEfficiency(app.ProfileFor(app.Hydro2D).Speedup, 0.7, 60),
		app.ProfileFor(app.Apsi).Speedup.Speedup(60))
	return Result{ID: "fig3", Title: "Speedup curves of the applications (Fig. 3)", Text: sb.String()}, nil
}

// Fig4 reproduces workload 1: 50% swim + 50% bt under the four policies.
func Fig4(o Options) (Result, error) {
	o = o.withDefaults()
	m, err := runMatrix(o, workload.W1(), system.PolicyKinds())
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:    "fig4",
		Title: "Workload 1 response and execution times (Fig. 4)",
		Text:  m.renderResponseExec([]app.Class{app.Swim, app.BT}),
	}, nil
}

// Fig5 renders the execution views of workload 1 (load=100%) under IRIX and
// PDPA — the textual analogue of the Paraver windows.
func Fig5(o Options) (Result, error) {
	o = o.withDefaults()
	seed := o.Seeds[0]
	w, err := genWorkload(o, workload.W1(), 1.0, seed)
	if err != nil {
		return Result{}, err
	}
	var sb strings.Builder
	for _, pk := range []system.PolicyKind{system.IRIX, system.PDPA} {
		res, err := system.Run(system.Config{Workload: w, Policy: pk, Seed: seed, KeepBursts: true})
		if err != nil {
			return Result{}, err
		}
		classOf := map[int]app.Class{}
		for _, j := range w.Jobs {
			classOf[j.ID] = j.Class
		}
		fmt.Fprintf(&sb, "--- %s (first 120 s, rows = CPUs, letters = applications: S=swim B=bt, .=idle)\n", policyLabel(pk))
		sb.WriteString(res.Recorder.Render(trace.RenderOptions{
			Width: 100,
			From:  0,
			To:    120 * sim.Second,
			Label: func(job int) rune { return classOf[job].Letter() },
		}))
		sb.WriteByte('\n')
	}
	sb.WriteString("A stable space-sharing schedule shows long horizontal runs of one letter;\n" +
		"the native scheduler's view is speckled by migrations and time slicing.\n")
	return Result{ID: "fig5", Title: "Execution views for workload 1 under IRIX and PDPA (Fig. 5)", Text: sb.String()}, nil
}

// Fig6 reproduces workload 2: 50% bt + 50% hydro2d.
func Fig6(o Options) (Result, error) {
	o = o.withDefaults()
	m, err := runMatrix(o, workload.W2(), system.PolicyKinds())
	if err != nil {
		return Result{}, err
	}
	var sb strings.Builder
	sb.WriteString(m.renderResponseExec([]app.Class{app.BT, app.Hydro2D}))
	// The per-class allocations behind the result (paper: PDPA gives ~20 to
	// bt and ~9 to hydro2d; Equipartition ~15 each).
	fmt.Fprintf(&sb, "average processors at load=100%%: ")
	for _, pk := range m.policies {
		fmt.Fprintf(&sb, "%s bt=%.1f hydro=%.1f  ",
			policyLabel(pk), m.mean(m.alloc, pk, 1.0, app.BT), m.mean(m.alloc, pk, 1.0, app.Hydro2D))
	}
	sb.WriteByte('\n')
	return Result{
		ID:    "fig6",
		Title: "Workload 2 response and execution times (Fig. 6)",
		Text:  sb.String(),
	}, nil
}

// Fig7 reproduces the multiprogramming-level sensitivity study: workload 2
// under Equipartition and PDPA with the level set to 2, 3, and 4.
func Fig7(o Options) (Result, error) {
	o = o.withDefaults()
	var sb strings.Builder
	classes := []app.Class{app.BT, app.Hydro2D}
	fmt.Fprintf(&sb, "%-8s %-10s %-4s", "load", "policy", "ml")
	for _, c := range classes {
		fmt.Fprintf(&sb, " %12s %12s", c.String()+" resp", c.String()+" exec")
	}
	fmt.Fprintf(&sb, " %10s %8s\n", "makespan", "maxML")
	for _, load := range o.Loads {
		for _, ml := range []int{2, 3, 4} {
			for _, pk := range []system.PolicyKind{system.Equipartition, system.PDPA} {
				var respSum, execSum [2]float64
				var makespan, maxML float64
				for _, seed := range o.Seeds {
					w, err := genWorkload(o, workload.W2(), load, seed)
					if err != nil {
						return Result{}, err
					}
					cfg := system.Config{Workload: w, Policy: pk, Seed: seed, FixedMPL: ml}
					if pk == system.PDPA {
						params := defaultPDPAParams()
						params.BaseMPL = ml
						cfg.PDPAParams = &params
					}
					res, err := system.Run(cfg)
					if err != nil {
						return Result{}, err
					}
					resp := res.ResponseByClass()
					exec := res.ExecutionByClass()
					for i, c := range classes {
						respSum[i] += resp[c]
						execSum[i] += exec[c]
					}
					makespan += res.Makespan.Seconds()
					maxML += float64(res.MaxMPL)
				}
				n := float64(len(o.Seeds))
				fmt.Fprintf(&sb, "%-8.0f %-10s %-4d", load*100, policyLabel(pk), ml)
				for i := range classes {
					fmt.Fprintf(&sb, " %12.1f %12.1f", respSum[i]/n, execSum[i]/n)
				}
				fmt.Fprintf(&sb, " %10.1f %8.1f\n", makespan/n, maxML/n)
			}
		}
	}
	sb.WriteString("\nPDPA's results barely move with the configured level (it re-decides the\n" +
		"level itself); Equipartition's execution times degrade as ml grows.\n")
	return Result{ID: "fig7", Title: "Workload 2 at multiprogramming levels 2, 3, 4 (Fig. 7)", Text: sb.String()}, nil
}

// Fig8 reproduces the dynamic multiprogramming-level timeline decided by
// PDPA on workload 2 at 100% load.
func Fig8(o Options) (Result, error) {
	o = o.withDefaults()
	seed := o.Seeds[0]
	w, err := genWorkload(o, workload.W2(), 1.0, seed)
	if err != nil {
		return Result{}, err
	}
	res, err := system.Run(system.Config{Workload: w, Policy: system.PDPA, Seed: seed})
	if err != nil {
		return Result{}, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "max ML = %d, time-weighted average = %.1f\n\n", res.MaxMPL, res.AvgMPL)
	// Render as a coarse step chart: one row per 10 s bucket.
	bucket := 10 * sim.Second
	tl := res.MPLTimeline
	level := 0
	idx := 0
	for t := sim.Time(0); t < res.Makespan; t += bucket {
		for idx < len(tl) && tl[idx].At <= t {
			level = tl[idx].Value
			idx++
		}
		fmt.Fprintf(&sb, "%6.0fs |%s %d\n", t.Seconds(), strings.Repeat("#", level), level)
	}
	return Result{ID: "fig8", Title: "Multiprogramming level decided by PDPA (Fig. 8)", Text: sb.String()}, nil
}

// Fig9 reproduces workload 3: 50% bt + 50% apsi.
func Fig9(o Options) (Result, error) {
	o = o.withDefaults()
	m, err := runMatrix(o, workload.W3(), system.PolicyKinds())
	if err != nil {
		return Result{}, err
	}
	var sb strings.Builder
	sb.WriteString(m.renderResponseExec([]app.Class{app.BT, app.Apsi}))
	if run := m.lastRuns[system.PDPA][1.0]; run != nil {
		fmt.Fprintf(&sb, "PDPA at load=100%%: max multiprogramming level = %d (the paper reports up to 34)\n", run.MaxMPL)
	}
	return Result{
		ID:    "fig9",
		Title: "Workload 3 response and execution times (Fig. 9)",
		Text:  sb.String(),
	}, nil
}

// Fig10 reproduces workload 4: 25% of each application.
func Fig10(o Options) (Result, error) {
	o = o.withDefaults()
	m, err := runMatrix(o, workload.W4(), system.PolicyKinds())
	if err != nil {
		return Result{}, err
	}
	var sb strings.Builder
	sb.WriteString(m.renderResponseExec(app.AllClasses()))
	fmt.Fprintf(&sb, "average processors at load=80%% under PDPA: ")
	for _, c := range app.AllClasses() {
		fmt.Fprintf(&sb, "%s=%.1f ", c, m.mean(m.alloc, system.PDPA, 0.8, c))
	}
	fmt.Fprintf(&sb, "\n(the paper reports swim=17, bt=20, hydro2d=10, apsi=2)\n")
	// Equal_efficiency fairness pathology: allocation spread for swim.
	if run := m.lastRuns[system.EqualEfficiency][1.0]; run != nil {
		lo, hi := run.MinMaxAllocByClass(app.Swim)
		fmt.Fprintf(&sb, "Equal_eff swim allocations at load=100%%: min=%.1f max=%.1f "+
			"(the paper reports 2..28 for identical jobs)\n", lo, hi)
	}
	return Result{
		ID:    "fig10",
		Title: "Workload 4 response and execution times (Fig. 10)",
		Text:  sb.String(),
	}, nil
}
