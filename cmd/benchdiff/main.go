// Command benchdiff is the perf-trajectory gate: it compares a fresh
// benchmark snapshot against a checked-in baseline and fails (exit 1)
// on regressions beyond the threshold — shared-scan elapsed time
// (calibration-scaled across machines) or any row's peak buffer bytes.
// Each regression is reported with the exact row (query/size/mode), its
// baseline and observed values, and the allowed maximum.
//
// When the two snapshots come from visibly different machines — CPU
// counts differ, or the calibration loop ran more than a third apart —
// it prints a loud warning: calibration scaling corrects elapsed
// comparisons to first order, but cross-machine diffs are inherently
// softer evidence than same-machine ones.
//
// It also enforces six invariants on the fresh snapshot: on every
// (query, size) cell measured in both a flux row and a baseline row,
// flux must be the fastest mode — the paper's headline claim; wherever
// both fanout-all and fanout-automaton rows exist, the merged-automaton
// routing must have delivered strictly fewer events than all-fanout
// with byte-identical output — routing may only withhold events no
// query can use; wherever both
// served-single and served-sharded rows exist, the sharded tier must
// have produced identical output bytes and delivered identical tokens —
// sharding must not change results; wherever both migrate-static
// and migrate-live rows exist, the query stream that raced a live
// document migration must match the static topology's output and
// tokens exactly — migration must be invisible to queries; and
// wherever both stream-static and stream-replay rows exist, the
// standing subscriptions fed by the chunked replay must have produced
// exactly the static scan's output bytes — live ingestion must not
// change results either; and wherever both skewed-single and
// skewed-converge rows exist, the 2-shard tier whose hot-document
// replica the autonomous rebalancer placed must have served the burst
// in strictly less wall clock than the single capacity-capped node —
// convergence must actually pay for itself.
//
// Usage:
//
//	benchdiff -old BENCH_2.json -new BENCH_NEW.json [-pct 20]
package main

import (
	"flag"
	"fmt"
	"os"

	"flux/internal/bench"
)

func main() {
	var (
		oldPath = flag.String("old", "", "baseline snapshot (the last checked-in BENCH_<n>.json)")
		newPath = flag.String("new", "", "fresh snapshot to check")
		pct     = flag.Float64("pct", 20, "maximum allowed regression in percent")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fatal(fmt.Errorf("both -old and -new are required"))
	}
	if *pct < 0 {
		fatal(fmt.Errorf("-pct must be non-negative, got %v", *pct))
	}
	oldSnap, err := bench.ReadSnapshot(*oldPath)
	if err != nil {
		fatal(err)
	}
	newSnap, err := bench.ReadSnapshot(*newPath)
	if err != nil {
		fatal(err)
	}
	res := bench.Diff(oldSnap, newSnap, *pct)
	if res.Compared == 0 {
		fatal(fmt.Errorf("no comparable rows between %s and %s", *oldPath, *newPath))
	}
	fmt.Printf("benchdiff: %d rows compared (%s -> %s), machine scale %.2f, threshold %.0f%%\n",
		res.Compared, *oldPath, *newPath, res.Scale, *pct)
	warnMachineDrift(oldSnap, newSnap)
	failed := false
	if err := bench.CheckFluxFastest(newSnap); err != nil {
		fmt.Println("benchdiff: FLUX-FASTEST INVARIANT VIOLATED:", err)
		failed = true
	}
	if err := bench.CheckFanout(newSnap); err != nil {
		fmt.Println("benchdiff: FANOUT INVARIANT VIOLATED:", err)
		failed = true
	}
	if err := bench.CheckSharded(newSnap); err != nil {
		fmt.Println("benchdiff: SHARDED INVARIANT VIOLATED:", err)
		failed = true
	}
	if err := bench.CheckMigrate(newSnap); err != nil {
		fmt.Println("benchdiff: MIGRATE INVARIANT VIOLATED:", err)
		failed = true
	}
	if err := bench.CheckStreamEquivalence(newSnap); err != nil {
		fmt.Println("benchdiff: STREAM INVARIANT VIOLATED:", err)
		failed = true
	}
	if err := bench.CheckSkewedConverge(newSnap); err != nil {
		fmt.Println("benchdiff: SKEWED-CONVERGE INVARIANT VIOLATED:", err)
		failed = true
	}
	for _, r := range res.Regressions {
		fmt.Println("benchdiff: REGRESSION", r)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regressions")
}

// calibDriftPct is how far apart (in percent) two snapshots'
// calibration times may sit before the comparison is flagged as
// cross-machine: same-machine runs land within a few percent, while
// different hosts (or a throttled runner) diverge by tens.
const calibDriftPct = 33

// warnMachineDrift prints a loud warning when the two snapshots were
// visibly produced by different machines — a different CPU count, or
// calibration times more than calibDriftPct apart. Elapsed comparisons
// are calibration-scaled either way; the warning tells the reader how
// much weight the timing rows deserve.
func warnMachineDrift(oldSnap, newSnap *bench.Snapshot) {
	var reasons []string
	if oldSnap.NumCPU != newSnap.NumCPU && oldSnap.NumCPU > 0 && newSnap.NumCPU > 0 {
		reasons = append(reasons,
			fmt.Sprintf("num_cpu %d -> %d", oldSnap.NumCPU, newSnap.NumCPU))
	}
	if oldSnap.CalibNS > 0 && newSnap.CalibNS > 0 {
		hi, lo := oldSnap.CalibNS, newSnap.CalibNS
		if hi < lo {
			hi, lo = lo, hi
		}
		if drift := 100 * float64(hi-lo) / float64(lo); drift > calibDriftPct {
			reasons = append(reasons,
				fmt.Sprintf("calib_ns %d -> %d (%.0f%% apart)", oldSnap.CalibNS, newSnap.CalibNS, drift))
		}
	}
	if len(reasons) == 0 {
		return
	}
	fmt.Println("benchdiff: ************************************************************")
	fmt.Println("benchdiff: WARNING: snapshots come from different machines:")
	for _, r := range reasons {
		fmt.Println("benchdiff: WARNING:   " + r)
	}
	fmt.Println("benchdiff: WARNING: elapsed comparisons are calibration-scaled, but")
	fmt.Println("benchdiff: WARNING: cross-machine timing diffs are soft evidence; regen")
	fmt.Println("benchdiff: WARNING: the baseline on this machine before trusting them.")
	fmt.Println("benchdiff: ************************************************************")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
