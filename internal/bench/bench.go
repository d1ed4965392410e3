// Package bench is the harness that regenerates the paper's Figure 4: it
// generates XMark-like documents at a sweep of sizes, runs the five
// benchmark queries through the FluX engine and the two baselines, and
// prints the table of execution time and peak memory. Performance
// claims go through benchmark/, a module of its own; this harness keeps
// only the grid benchmark/ does not yet measure.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flux"
	"flux/internal/xmark"
)

// Mode identifies an execution strategy column.
type Mode string

// The benchmark columns. FluXNoSchema is the ablation: the FluX runtime
// with scheduling disabled (everything behind on-first past(*), the
// universal Example 3.4 schedule), isolating the contribution of
// schema-based scheduling.
const (
	ModeFluX         Mode = "flux"
	ModeNaive        Mode = "naive"
	ModeProjection   Mode = "projection"
	ModeFluXNoSchema Mode = "flux-noschema"
)

// AllModes lists the standard Figure 4 columns (FluX, Galax stand-in,
// AnonX stand-in).
var AllModes = []Mode{ModeFluX, ModeNaive, ModeProjection}

// Config selects what to run.
type Config struct {
	// SizesMB are the document sizes to sweep (the paper uses 5, 10, 50,
	// 100).
	SizesMB []int
	// Queries restricts the query set (default: all of Figure 4).
	Queries []string
	// Modes restricts the engine columns (default AllModes).
	Modes []Mode
	// Seed feeds the data generator.
	Seed int64
	// MaxBaselineMB skips the in-memory baselines above this document
	// size, reproducing the paper's "- / >500MB" entries without
	// thrashing; 0 means no limit.
	MaxBaselineMB int
	// WorkDir holds the generated documents; defaults to a temp dir.
	WorkDir string
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

// Row is one table cell: a (query, size, mode) measurement.
type Row struct {
	Query   string
	SizeMB  int
	Bytes   int64 // actual document size
	Mode    Mode
	Elapsed time.Duration
	Buffer  int64 // peak buffered/materialized bytes
	Output  int64
	Skipped bool // baseline skipped at this size
}

// fig4Repeats is how many times each cell runs; the row records the
// fastest. Single-shot wall times of a small document are too noisy to
// gate the flux-fastest invariant on (CheckFluxFastest), and contention
// from outside the process only ever inflates a run.
const fig4Repeats = 3

// Run executes the configured sweep.
func Run(cfg Config) ([]Row, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: a done ctx (an interrupted
// fluxbench, a CI timeout) stops the sweep mid-document instead of
// finishing the remaining cells.
func RunContext(ctx context.Context, cfg Config) ([]Row, error) {
	if len(cfg.SizesMB) == 0 {
		cfg.SizesMB = []int{1, 2, 5}
	}
	if len(cfg.Queries) == 0 {
		cfg.Queries = xmark.QueryNames
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = AllModes
	}
	workDir := cfg.WorkDir
	if workDir == "" {
		d, err := os.MkdirTemp("", "fluxbench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		workDir = d
	}

	var rows []Row
	for _, sizeMB := range cfg.SizesMB {
		path, docBytes, err := EnsureDocument(workDir, sizeMB, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, qname := range cfg.Queries {
			queryText, ok := xmark.Queries[qname]
			if !ok {
				return nil, fmt.Errorf("bench: unknown query %q", qname)
			}
			for _, mode := range cfg.Modes {
				row := Row{Query: qname, SizeMB: sizeMB, Bytes: docBytes, Mode: mode}
				if mode != ModeFluX && mode != ModeFluXNoSchema &&
					cfg.MaxBaselineMB > 0 && sizeMB > cfg.MaxBaselineMB {
					row.Skipped = true
					rows = append(rows, row)
					continue
				}
				for rep := 0; rep < fig4Repeats; rep++ {
					st, elapsed, err := runOne(ctx, queryText, path, mode)
					if err != nil {
						return nil, fmt.Errorf("bench: %s %dMB %s: %w", qname, sizeMB, mode, err)
					}
					if rep == 0 || elapsed < row.Elapsed {
						row.Elapsed = elapsed
					}
					if rep == 0 {
						row.Buffer = st.PeakBufferBytes
						row.Output = st.OutputBytes
					}
				}
				rows = append(rows, row)
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "%-4s %4dMB %-13s %10.2fs %12s buffered\n",
						qname, sizeMB, mode, row.Elapsed.Seconds(), FormatBytes(row.Buffer))
				}
			}
		}
	}
	return rows, nil
}

// CheckFluxFastest verifies the paper's headline claim over one sweep:
// wherever a (query, size) has a flux row alongside a naive or
// projection row, the flux row's elapsed time must not exceed the
// baseline's — schema-based scheduling plus streaming execution must
// beat both a full materialization and a pruned one. Rows are min-of-N
// measurements (fig4Repeats), so a violation is a real loss, not
// scheduler jitter. Returns an error naming the first offending cell, or
// nil when the invariant holds.
func CheckFluxFastest(rows []Row) error {
	type cell struct {
		query  string
		sizeMB int
	}
	flux := make(map[cell]time.Duration)
	for _, r := range rows {
		if r.Mode == ModeFluX && !r.Skipped {
			flux[cell{r.Query, r.SizeMB}] = r.Elapsed
		}
	}
	for _, r := range rows {
		if r.Skipped || (r.Mode != ModeNaive && r.Mode != ModeProjection) {
			continue
		}
		f, ok := flux[cell{r.Query, r.SizeMB}]
		if !ok {
			continue
		}
		if f > r.Elapsed {
			return fmt.Errorf("%s %dMB: flux took %v, %s %v; flux must be the fastest mode on every query",
				r.Query, r.SizeMB, f, r.Mode, r.Elapsed)
		}
	}
	return nil
}

// EnsureDocument generates (or reuses) the benchmark document of the
// requested size in dir and returns its path and byte size.
func EnsureDocument(dir string, sizeMB int, seed int64) (string, int64, error) {
	path := filepath.Join(dir, fmt.Sprintf("xmark-%dmb-seed%d.xml", sizeMB, seed))
	if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
		return path, fi.Size(), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	n, err := xmark.Generate(f, xmark.GenOptions{
		Scale: xmark.ScaleForBytes(int64(sizeMB) << 20),
		Seed:  seed,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", 0, err
	}
	return path, n, nil
}

func runOne(ctx context.Context, queryText, docPath string, mode Mode) (flux.Stats, time.Duration, error) {
	var q *flux.Query
	var err error
	if mode == ModeFluXNoSchema {
		q, err = flux.PrepareUnscheduled(queryText, xmark.DTD)
	} else {
		q, err = flux.Prepare(queryText, xmark.DTD)
	}
	if err != nil {
		return flux.Stats{}, 0, err
	}
	opt := flux.Options{}
	switch mode {
	case ModeNaive:
		opt.Engine = flux.Naive
	case ModeProjection:
		opt.Engine = flux.Projection
	}
	f, err := os.Open(docPath)
	if err != nil {
		return flux.Stats{}, 0, err
	}
	defer f.Close()
	start := time.Now()
	st, err := q.RunContext(ctx, f, io.Discard, opt)
	return st, time.Since(start), err
}

// FormatBytes renders a byte count the way Figure 4 does (0, 4.66k,
// 3.16M, ...).
func FormatBytes(n int64) string {
	switch {
	case n < 1000:
		return fmt.Sprintf("%d", n)
	case n < 1_000_000:
		return fmt.Sprintf("%.2fk", float64(n)/1000)
	default:
		return fmt.Sprintf("%.2fM", float64(n)/1_000_000)
	}
}

// FormatTable renders rows in the layout of the paper's Figure 4: one
// block per query, one line per size, one "time/memory" column per mode.
func FormatTable(rows []Row, modes []Mode) string {
	if len(modes) == 0 {
		modes = AllModes
	}
	type key struct {
		query  string
		sizeMB int
	}
	inModes := make(map[Mode]bool, len(modes))
	for _, m := range modes {
		inModes[m] = true
	}
	cells := make(map[key]map[Mode]Row)
	var queries []string
	seenQ := map[string]bool{}
	sizesSet := map[int]bool{}
	for _, r := range rows {
		if !inModes[r.Mode] {
			continue
		}
		k := key{r.Query, r.SizeMB}
		if cells[k] == nil {
			cells[k] = make(map[Mode]Row)
		}
		cells[k][r.Mode] = r
		if !seenQ[r.Query] {
			seenQ[r.Query] = true
			queries = append(queries, r.Query)
		}
		sizesSet[r.SizeMB] = true
	}
	var sizes []int
	for s := range sizesSet {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)

	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %6s", "query", "size")
	for _, m := range modes {
		fmt.Fprintf(&b, " | %24s", string(m)+" (time/mem)")
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 14+27*len(modes)) + "\n")
	for _, q := range queries {
		for _, s := range sizes {
			row, ok := cells[key{q, s}]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-6s %4dMB", q, s)
			for _, m := range modes {
				r, ok := row[m]
				switch {
				case !ok:
					fmt.Fprintf(&b, " | %24s", "n/a")
				case r.Skipped:
					fmt.Fprintf(&b, " | %24s", "- / skipped")
				default:
					fmt.Fprintf(&b, " | %13.2fs /%8s", r.Elapsed.Seconds(), FormatBytes(r.Buffer))
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
