package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
)

// selfCheck runs the untraced set twice in one invocation, the second
// time in reverse order, and holds the benchmark to its own bounds: an
// end-to-end median may not differ between the two sets by more than
// its bound, and a count must not differ at all. A bound may be widened
// only on the evidence this prints.
func selfCheck(ctx context.Context, cfg *config, specs []*workloadSpec, stdout, stderr io.Writer) int {
	cfg.trace = false
	first, okFirst := runSet(ctx, cfg, specs, stdout, stderr)
	reversed := slices.Clone(specs)
	slices.Reverse(reversed)
	second, okSecond := runSet(ctx, cfg, reversed, stdout, stderr)
	if err := writeRecord(cfg, append(first, second...)); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !okFirst || !okSecond {
		return 1
	}
	byName := map[string]result{}
	for _, r := range second {
		byName[r.Workload] = r
	}
	bad := 0
	fmt.Fprintf(stdout, "%-14s %-20s %16s %16s %8s  %s\n", "workload", "metric", "first", "second", "ratio", "verdict")
	for _, a := range first {
		b := byName[a.Workload]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			verdict := "ok"
			switch {
			case d.exact && va != vb:
				verdict = "COUNT DIFFERS"
			case !d.exact && math.Abs(vb-va) > d.bound*math.Min(va, vb):
				verdict = fmt.Sprintf("OUTSIDE %.0f%%", d.bound*100)
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(stdout, "%-14s %-20s %16.4f %16.4f %8.4f  %s\n", a.Workload, d.name, va, vb, ratio(vb, va), verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchmark: selfcheck: %d metrics differ between two sets of runs of the same code\n", bad)
		return 1
	}
	return 0
}
