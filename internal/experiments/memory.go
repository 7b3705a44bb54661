package experiments

import (
	"fmt"
	"strings"

	"pdpasim/internal/system"
	"pdpasim/internal/workload"
)

// MemoryStability quantifies the paper's Section 5.1.1 observation that a
// stable schedule lets the OS's automatic page migration do its work. With
// the CC-NUMA page-placement model on (Origin-like 1.3x remote penalty and
// a daemon healing 20%/s), every space-sharing policy pays only a few
// percent — each allocation change costs a short healing window — while the
// instability of the churny policies shows as thousands of thread
// migrations versus PDPA's near-zero.
func MemoryStability(o Options) (Result, error) {
	o = o.withDefaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, "w1 at 100%% load, 4-CPU NUMA nodes, remote penalty 1.3x, daemon 20%%/s\n\n")
	fmt.Fprintf(&sb, "%-10s %14s %14s %10s %12s\n",
		"policy", "makespan flat", "makespan NUMA", "slowdown", "migrations")
	policies := []system.PolicyKind{
		system.Equipartition, system.EqualEfficiency, system.Dynamic, system.PDPA,
	}
	for _, pk := range policies {
		var flat, numa, migr float64
		for _, seed := range o.Seeds {
			w, err := genWorkload(o, workload.W1(), 1.0, seed)
			if err != nil {
				return Result{}, err
			}
			base, err := system.Run(system.Config{
				Workload: w, Policy: pk, Seed: seed, NUMANodeSize: 4,
			})
			if err != nil {
				return Result{}, err
			}
			withMem, err := system.Run(system.Config{
				Workload: w, Policy: pk, Seed: seed, NUMANodeSize: 4, Memory: true,
			})
			if err != nil {
				return Result{}, err
			}
			flat += base.Makespan.Seconds()
			numa += withMem.Makespan.Seconds()
			migr += float64(withMem.Stability.Migrations)
		}
		n := float64(len(o.Seeds))
		fmt.Fprintf(&sb, "%-10s %13.1fs %13.1fs %9.2fx %12.0f\n",
			policyLabel(pk), flat/n, numa/n, numa/flat, migr/n)
	}
	sb.WriteString("\nWith the Origin's modest NUMA ratio and a working page-migration daemon,\n" +
		"every space-sharing policy loses only a few percent to remote accesses —\n" +
		"each allocation change (PDPA's search included) costs a short healing\n" +
		"period. The locality damage of instability shows in the thread-migration\n" +
		"counts (Equal_eff/Dynamic in the thousands, PDPA near zero): per-\n" +
		"migration cache losses are what the IRIX model's time sharing pays for\n" +
		"directly, and why the paper insists allocations stay stable (Section 6).\n")
	return Result{ID: "ext3", Title: "Memory-migration stability study (w1, load=100%, CC-NUMA model)", Text: sb.String()}, nil
}
