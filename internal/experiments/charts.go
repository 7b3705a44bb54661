package experiments

import (
	"fmt"

	"pdpasim/internal/app"
	"pdpasim/internal/chart"
	"pdpasim/internal/system"
	"pdpasim/internal/workload"
)

// FigureChart is one renderable plot with the paper-artifact id it belongs
// to.
type FigureChart struct {
	// Name is a filesystem-friendly identifier, e.g. "fig4_swim_response".
	Name  string
	Chart *chart.Chart
}

// Charts regenerates the paper's figures as SVG-renderable line charts:
// Fig. 3's speedup curves, the response/execution-versus-load panels of
// Figs. 4, 6, 9, and 10, and Fig. 8's multiprogramming-level timeline.
func Charts(o Options) ([]FigureChart, error) {
	o = o.withDefaults()
	var out []FigureChart

	// Fig. 3: speedup curves.
	fig3 := &chart.Chart{
		Title:  "Fig. 3 — speedup curves",
		XLabel: "processors",
		YLabel: "speedup",
	}
	procs := []int{1, 2, 4, 8, 12, 16, 20, 24, 30, 40, 50, 60}
	for _, c := range app.AllClasses() {
		prof := app.ProfileFor(c)
		s := chart.Series{Name: prof.Name}
		for _, p := range procs {
			s.X = append(s.X, float64(p))
			s.Y = append(s.Y, prof.Speedup.Speedup(p))
		}
		fig3.Series = append(fig3.Series, s)
	}
	out = append(out, FigureChart{Name: "fig3_speedup_curves", Chart: fig3})

	// Figs. 4, 6, 9, 10: per-class response and execution versus load.
	figures := []struct {
		id      string
		mix     workload.Mix
		classes []app.Class
	}{
		{"fig4", workload.W1(), []app.Class{app.Swim, app.BT}},
		{"fig6", workload.W2(), []app.Class{app.BT, app.Hydro2D}},
		{"fig9", workload.W3(), []app.Class{app.BT, app.Apsi}},
		{"fig10", workload.W4(), app.AllClasses()},
	}
	for _, fig := range figures {
		m, err := runMatrix(o, fig.mix, system.PolicyKinds())
		if err != nil {
			return nil, err
		}
		for _, cl := range fig.classes {
			for _, metric := range []struct {
				name  string
				store map[system.PolicyKind]map[float64]map[app.Class]*cell
			}{
				{"response", m.resp},
				{"execution", m.exec},
			} {
				c := &chart.Chart{
					Title:  fmt.Sprintf("%s — %s average %s time (%s)", fig.id, cl, metric.name, fig.mix.Name),
					XLabel: "load (%)",
					YLabel: "seconds",
				}
				for _, pk := range m.policies {
					s := chart.Series{Name: policyLabel(pk)}
					for _, load := range o.Loads {
						s.X = append(s.X, load*100)
						s.Y = append(s.Y, m.mean(metric.store, pk, load, cl))
					}
					c.Series = append(c.Series, s)
				}
				out = append(out, FigureChart{
					Name:  fmt.Sprintf("%s_%s_%s", fig.id, sanitize(cl.String()), metric.name),
					Chart: c,
				})
			}
		}
	}

	// Fig. 8: multiprogramming-level timeline under PDPA, w2 at 100%.
	w, err := genWorkload(o, workload.W2(), 1.0, o.Seeds[0])
	if err != nil {
		return nil, err
	}
	res, err := system.Run(system.Config{Workload: w, Policy: system.PDPA, Seed: o.Seeds[0]})
	if err != nil {
		return nil, err
	}
	fig8 := &chart.Chart{
		Title:  "Fig. 8 — multiprogramming level decided by PDPA (w2, 100%)",
		XLabel: "time (s)",
		YLabel: "multiprogramming level",
	}
	s := chart.Series{Name: "PDPA"}
	for _, p := range res.MPLTimeline {
		s.X = append(s.X, p.At.Seconds())
		s.Y = append(s.Y, float64(p.Value))
	}
	if len(s.X) > 0 {
		fig8.Series = append(fig8.Series, s)
		out = append(out, FigureChart{Name: "fig8_mpl_timeline", Chart: fig8})
	}
	return out, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
