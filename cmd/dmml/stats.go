package main

import (
	"fmt"
	"io"
	"time"

	"dmml/internal/metrics"
)

// printOpStats renders the -stats heavy-hitter table: every engine timer
// that fired during the run (DML operators, la/compress kernels, parameter-
// server ops, the out-of-core builder's waits), ranked by self time, with
// each operator's share of the run's wall time. Modeled on SystemML's -stats
// output. Below it, every engine counter that moved, by name (blocks built,
// groups per encoding, columns the compression planner settled from a row
// sample, ...).
func printOpStats(w io.Writer, elapsed time.Duration, k int) {
	if ops := metrics.Ops(""); len(ops) == 0 {
		fmt.Fprintln(w, "# -stats: no instrumented operators ran")
	} else {
		fmt.Fprintf(w, "# -stats: operators by self time (run took %s)\n", elapsed.Round(time.Microsecond))
		fmt.Fprint(w, metrics.FormatOpsTable(ops, k, elapsed))
	}
	header := false
	for _, c := range metrics.TakeSnapshot().Counters {
		if c.Value == 0 {
			continue
		}
		if !header {
			fmt.Fprintln(w, "# -stats: counters")
			header = true
		}
		fmt.Fprintf(w, "%-36s %d\n", c.Name, c.Value)
	}
}
