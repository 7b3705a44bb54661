// Package report verifies the reproduction: each paper claim is encoded as
// a programmatic check over fresh simulation runs, and the scorecard states
// pass/fail with the measured numbers. This is the library form of "does
// the repository still reproduce the paper" — run it after any change to
// the models or the policy.
package report

import (
	"fmt"

	"pdpasim/internal/app"
	"pdpasim/internal/experiments"
	"pdpasim/internal/metrics"
	"pdpasim/internal/sim"
	"pdpasim/internal/system"
	"pdpasim/internal/workload"
)

// Claim is one verifiable statement from the paper.
type Claim struct {
	// ID ties the claim to its artifact (fig4, tab2, ...).
	ID string
	// Statement is the paper's claim in one sentence.
	Statement string
	// Check runs the necessary simulations and returns pass plus a detail
	// line with the measured values.
	Check func(o experiments.Options) (bool, string, error)
}

// Result is one verified claim.
type Result struct {
	Claim  Claim
	Pass   bool
	Detail string
	Err    error
}

// window returns the options' submission window, defaulting to the paper's
// 300 s.
func window(o experiments.Options) sim.Time {
	if o.Window > 0 {
		return o.Window
	}
	return workload.DefaultWindow
}

// run executes a workload/policy pair with default settings.
func run(o experiments.Options, mix workload.Mix, load float64, seed int64, pk system.PolicyKind) (*metrics.RunResult, error) {
	w, err := workload.Generate(workload.GenConfig{
		Mix: mix, Load: load, NCPU: workload.DefaultNCPU, Window: window(o), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return system.Run(system.Config{Workload: w, Policy: pk, Seed: seed})
}

// Claims returns the scorecard's checks in paper order.
func Claims() []Claim {
	return []Claim{
		{
			ID:        "fig3",
			Statement: "The four applications span superlinear, good, medium, and no scalability",
			Check: func(o experiments.Options) (bool, string, error) {
				swim := app.ProfileFor(app.Swim).Speedup
				bt := app.ProfileFor(app.BT).Speedup
				hydro := app.ProfileFor(app.Hydro2D).Speedup
				apsi := app.ProfileFor(app.Apsi).Speedup
				pass := app.Efficiency(swim, 12) > 1 &&
					app.Efficiency(bt, 30) >= 0.85 &&
					app.MaxProcsAtEfficiency(hydro, 0.7, 60) >= 8 &&
					app.MaxProcsAtEfficiency(hydro, 0.7, 60) <= 12 &&
					apsi.Speedup(60) < 1.7
				detail := fmt.Sprintf("swim eff(12)=%.2f, bt eff(30)=%.2f, hydro frontier=%d, apsi S(60)=%.2f",
					app.Efficiency(swim, 12), app.Efficiency(bt, 30),
					app.MaxProcsAtEfficiency(hydro, 0.7, 60), apsi.Speedup(60))
				return pass, detail, nil
			},
		},
		{
			ID:        "fig4",
			Statement: "On w1 (PDPA's worst case) PDPA trails Equipartition moderately, IRIX is far worse, and Equal_efficiency's schedule churns",
			Check: func(o experiments.Options) (bool, string, error) {
				resp := map[system.PolicyKind]float64{}
				migs := map[system.PolicyKind]int{}
				for _, pk := range system.PolicyKinds() {
					res, err := run(o, workload.W1(), 1.0, 1, pk)
					if err != nil {
						return false, "", err
					}
					resp[pk] = res.ResponseByClass()[app.Swim]
					migs[pk] = res.Stability.Migrations
				}
				pass := resp[system.PDPA] <= 2.5*resp[system.Equipartition] &&
					resp[system.IRIX] > resp[system.PDPA] &&
					migs[system.EqualEfficiency] >= 20*(migs[system.PDPA]+1)
				detail := fmt.Sprintf("swim resp: IRIX=%.0fs Equip=%.0fs Equal_eff=%.0fs PDPA=%.0fs; migrations Equal_eff=%d PDPA=%d",
					resp[system.IRIX], resp[system.Equipartition],
					resp[system.EqualEfficiency], resp[system.PDPA],
					migs[system.EqualEfficiency], migs[system.PDPA])
				return pass, detail, nil
			},
		},
		{
			ID:        "tab2",
			Statement: "IRIX migrates orders of magnitude more than PDPA, whose bursts are ~100x longer",
			Check: func(o experiments.Options) (bool, string, error) {
				irix, err := run(o, workload.W1(), 1.0, 1, system.IRIX)
				if err != nil {
					return false, "", err
				}
				pdpa, err := run(o, workload.W1(), 1.0, 1, system.PDPA)
				if err != nil {
					return false, "", err
				}
				pass := irix.Stability.Migrations >= 100*(pdpa.Stability.Migrations+1) &&
					pdpa.Stability.AvgBurst >= 20*irix.Stability.AvgBurst
				detail := fmt.Sprintf("migrations IRIX=%d PDPA=%d; bursts IRIX=%v PDPA=%v",
					irix.Stability.Migrations, pdpa.Stability.Migrations,
					irix.Stability.AvgBurst, pdpa.Stability.AvgBurst)
				return pass, detail, nil
			},
		},
		{
			ID:        "fig6",
			Statement: "On w2 PDPA matches Equipartition's bt response and gives bt more processors than hydro2d",
			Check: func(o experiments.Options) (bool, string, error) {
				pdpa, err := run(o, workload.W2(), 1.0, 1, system.PDPA)
				if err != nil {
					return false, "", err
				}
				equip, err := run(o, workload.W2(), 1.0, 1, system.Equipartition)
				if err != nil {
					return false, "", err
				}
				alloc := pdpa.AvgAllocByClass()
				pass := pdpa.ResponseByClass()[app.BT] <= 1.3*equip.ResponseByClass()[app.BT] &&
					alloc[app.BT] > alloc[app.Hydro2D]
				detail := fmt.Sprintf("bt resp PDPA=%.0fs Equip=%.0fs; PDPA cpus bt=%.1f hydro=%.1f",
					pdpa.ResponseByClass()[app.BT], equip.ResponseByClass()[app.BT],
					alloc[app.BT], alloc[app.Hydro2D])
				return pass, detail, nil
			},
		},
		{
			ID:        "fig8",
			Statement: "PDPA drives the multiprogramming level above the fixed default and adapts it over the run",
			Check: func(o experiments.Options) (bool, string, error) {
				res, err := run(o, workload.W2(), 1.0, 1, system.PDPA)
				if err != nil {
					return false, "", err
				}
				pass := res.MaxMPL > 4 && len(res.MPLTimeline) > 10
				detail := fmt.Sprintf("max ML=%d, %d level changes", res.MaxMPL, len(res.MPLTimeline))
				return pass, detail, nil
			},
		},
		{
			ID:        "fig9",
			Statement: "On w3 PDPA improves both classes' response times by a large factor (the paper reports ~600%)",
			Check: func(o experiments.Options) (bool, string, error) {
				pdpa, err := run(o, workload.W3(), 1.0, 1, system.PDPA)
				if err != nil {
					return false, "", err
				}
				equip, err := run(o, workload.W3(), 1.0, 1, system.Equipartition)
				if err != nil {
					return false, "", err
				}
				pr, er := pdpa.ResponseByClass(), equip.ResponseByClass()
				pass := er[app.BT] >= 2*pr[app.BT] && er[app.Apsi] >= 2*pr[app.Apsi]
				detail := fmt.Sprintf("bt %.0fs->%.0fs (%.1fx), apsi %.0fs->%.0fs (%.1fx)",
					er[app.BT], pr[app.BT], er[app.BT]/pr[app.BT],
					er[app.Apsi], pr[app.Apsi], er[app.Apsi]/pr[app.Apsi])
				return pass, detail, nil
			},
		},
		{
			ID:        "fig9-exec",
			Statement: "PDPA's response gains cost little execution time: apsi none, bt bounded",
			Check: func(o experiments.Options) (bool, string, error) {
				pdpa, err := run(o, workload.W3(), 1.0, 1, system.PDPA)
				if err != nil {
					return false, "", err
				}
				equip, err := run(o, workload.W3(), 1.0, 1, system.Equipartition)
				if err != nil {
					return false, "", err
				}
				pe, ee := pdpa.ExecutionByClass(), equip.ExecutionByClass()
				pass := pe[app.Apsi] <= 1.1*ee[app.Apsi] && pe[app.BT] <= 2.2*ee[app.BT]
				detail := fmt.Sprintf("exec apsi %.0fs vs %.0fs; bt %.0fs vs %.0fs",
					pe[app.Apsi], ee[app.Apsi], pe[app.BT], ee[app.BT])
				return pass, detail, nil
			},
		},
		{
			ID:        "fig10",
			Statement: "On the full mix PDPA improves every class's response time, and superlinear swim gets fewer processors than bt (the RelativeSpeedup stop)",
			Check: func(o experiments.Options) (bool, string, error) {
				pdpa, err := run(o, workload.W4(), 0.8, 1, system.PDPA)
				if err != nil {
					return false, "", err
				}
				equip, err := run(o, workload.W4(), 0.8, 1, system.Equipartition)
				if err != nil {
					return false, "", err
				}
				pass := true
				for _, c := range app.AllClasses() {
					if pdpa.ResponseByClass()[c] >= equip.ResponseByClass()[c] {
						pass = false
					}
				}
				alloc := pdpa.AvgAllocByClass()
				swimBelowBT := alloc[app.Swim] < alloc[app.BT]+3
				detail := fmt.Sprintf("PDPA cpus swim=%.1f bt=%.1f hydro=%.1f apsi=%.1f",
					alloc[app.Swim], alloc[app.BT], alloc[app.Hydro2D], alloc[app.Apsi])
				return pass && swimBelowBT, detail, nil
			},
		},
		{
			ID:        "tab3",
			Statement: "Untuned submissions (apsi requesting 30) are where PDPA's robustness shows: far better response and workload time, far higher ML",
			Check: func(o experiments.Options) (bool, string, error) {
				w, err := workload.Generate(workload.GenConfig{
					Mix: workload.W3(), Load: 0.6, NCPU: workload.DefaultNCPU, Window: window(o), Seed: 1,
				})
				if err != nil {
					return false, "", err
				}
				untuned := w.WithUniformRequest(30)
				pdpa, err := system.Run(system.Config{Workload: untuned, Policy: system.PDPA, Seed: 1})
				if err != nil {
					return false, "", err
				}
				equip, err := system.Run(system.Config{Workload: untuned, Policy: system.Equipartition, Seed: 1})
				if err != nil {
					return false, "", err
				}
				pass := equip.ResponseByClass()[app.Apsi] >= 1.5*pdpa.ResponseByClass()[app.Apsi] &&
					equip.Makespan > pdpa.Makespan &&
					pdpa.MaxMPL >= 3*equip.MaxMPL
				detail := fmt.Sprintf("apsi resp %.0fs vs %.0fs; makespan %.0fs vs %.0fs; ML %d vs %d",
					equip.ResponseByClass()[app.Apsi], pdpa.ResponseByClass()[app.Apsi],
					equip.Makespan.Seconds(), pdpa.Makespan.Seconds(),
					equip.MaxMPL, pdpa.MaxMPL)
				return pass, detail, nil
			},
		},
		{
			ID:        "ext3",
			Statement: "The CC-NUMA page model costs stable space-sharing schedules only a few percent; instability shows as thread-migration churn",
			Check: func(o experiments.Options) (bool, string, error) {
				slow := func(pk system.PolicyKind) (float64, error) {
					w, err := workload.Generate(workload.GenConfig{
						Mix: workload.W1(), Load: 1.0, NCPU: workload.DefaultNCPU, Window: window(o), Seed: 1,
					})
					if err != nil {
						return 0, err
					}
					base, err := system.Run(system.Config{Workload: w, Policy: pk, Seed: 1, NUMANodeSize: 4})
					if err != nil {
						return 0, err
					}
					numa, err := system.Run(system.Config{Workload: w, Policy: pk, Seed: 1, NUMANodeSize: 4, Memory: true})
					if err != nil {
						return 0, err
					}
					return numa.Makespan.Seconds() / base.Makespan.Seconds(), nil
				}
				p, err := slow(system.PDPA)
				if err != nil {
					return false, "", err
				}
				d, err := slow(system.Dynamic)
				if err != nil {
					return false, "", err
				}
				pass := p < 1.15 && d < 1.15
				return pass, fmt.Sprintf("slowdown PDPA=%.2fx Dynamic=%.2fx (churn cost is in migration counts, cf. fig4/tab2)", p, d), nil
			},
		},
		{
			ID:        "ext6",
			Statement: "A load-adaptive target efficiency (the paper's sketched variant) improves on the static 0.7 at light load without losing under backlog",
			Check: func(o experiments.Options) (bool, string, error) {
				static, err := run(o, workload.W2(), 0.6, 1, system.PDPA)
				if err != nil {
					return false, "", err
				}
				adaptive, err := run(o, workload.W2(), 0.6, 1, system.AdaptivePDPA)
				if err != nil {
					return false, "", err
				}
				se := static.ExecutionByClass()[app.Hydro2D]
				ae := adaptive.ExecutionByClass()[app.Hydro2D]
				pass := ae < se && adaptive.Makespan <= static.Makespan+static.Makespan/10
				detail := fmt.Sprintf("hydro exec static=%.0fs adaptive=%.0fs; makespan %.0fs vs %.0fs",
					se, ae, static.Makespan.Seconds(), adaptive.Makespan.Seconds())
				return pass, detail, nil
			},
		},
	}
}

// Scorecard verifies every claim and returns the results.
func Scorecard(o experiments.Options) []Result {
	var out []Result
	for _, c := range Claims() {
		pass, detail, err := c.Check(o)
		out = append(out, Result{Claim: c, Pass: pass && err == nil, Detail: detail, Err: err})
	}
	return out
}

// Render formats the scorecard as text.
func Render(results []Result) string {
	out := ""
	passed := 0
	for _, r := range results {
		mark := "PASS"
		if !r.Pass {
			mark = "FAIL"
		} else {
			passed++
		}
		out += fmt.Sprintf("[%s] %-9s %s\n", mark, r.Claim.ID, r.Claim.Statement)
		if r.Err != nil {
			out += fmt.Sprintf("           error: %v\n", r.Err)
		} else {
			out += fmt.Sprintf("           %s\n", r.Detail)
		}
	}
	out += fmt.Sprintf("\n%d/%d claims reproduced\n", passed, len(results))
	return out
}
