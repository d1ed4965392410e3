// Command fluxbench regenerates the paper's Figure 4: the five adapted
// XMark queries across a sweep of document sizes, with execution time and
// peak memory per engine. Each cell is the fastest of three runs. The
// command prints the table and exits non-zero when a flux cell is slower
// than a baseline cell of the same query and size, the paper's headline
// claim. Performance claims go through benchmark/, not this table.
//
// Usage:
//
//	fluxbench                        # default: 1,2,5 MB, all queries, 3 engines
//	fluxbench -sizes 5,10,50,100     # the paper's sizes (slow: naive joins are O(n²))
//	fluxbench -q q8 -sizes 5 -max-baseline 10
//	fluxbench -ablation              # FluX vs FluX-without-scheduling
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"flux/internal/bench"
)

func main() {
	var (
		sizes       = flag.String("sizes", "1,2,5", "comma-separated document sizes in MB")
		queries     = flag.String("q", "", "comma-separated query subset (q1,q8,q11,q13,q20); empty = all")
		seed        = flag.Int64("seed", 1, "data generator seed")
		maxBaseline = flag.Int("max-baseline", 0, "skip in-memory baselines above this many MB (0 = never)")
		workDir     = flag.String("dir", "", "directory for generated documents (default: temp, removed after)")
		ablation    = flag.Bool("ablation", false, "compare FluX against FluX with scheduling disabled")
	)
	flag.Parse()

	cfg := bench.Config{
		Seed:          *seed,
		MaxBaselineMB: *maxBaseline,
		WorkDir:       *workDir,
		Progress:      os.Stderr,
	}
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad size %q", s))
		}
		cfg.SizesMB = append(cfg.SizesMB, n)
	}
	if *queries != "" {
		for _, q := range strings.Split(*queries, ",") {
			cfg.Queries = append(cfg.Queries, strings.TrimSpace(q))
		}
	}
	cfg.Modes = bench.AllModes
	if *ablation {
		cfg.Modes = []bench.Mode{bench.ModeFluX, bench.ModeFluXNoSchema}
	}

	// An interrupt abandons the sweep mid-document via the context path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rows, err := bench.RunContext(ctx, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fatal(errors.New("interrupted"))
		}
		fatal(err)
	}
	fmt.Println()
	fmt.Print(bench.FormatTable(rows, cfg.Modes))
	if err := bench.CheckFluxFastest(rows); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fluxbench:", err)
	os.Exit(1)
}
