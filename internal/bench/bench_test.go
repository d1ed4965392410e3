package bench

import (
	"strings"
	"testing"
	"time"
)

func TestRunTinySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("generates documents")
	}
	dir := t.TempDir()
	rows, err := Run(Config{
		SizesMB: []int{1},
		Queries: []string{"q1", "q20"},
		Modes:   []Mode{ModeFluX, ModeNaive},
		Seed:    1,
		WorkDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Skipped {
			t.Errorf("row %+v skipped unexpectedly", r)
		}
		if r.Output == 0 {
			t.Errorf("%s/%s produced no output", r.Query, r.Mode)
		}
		if r.Mode == ModeNaive && r.Buffer < r.Bytes/2 {
			t.Errorf("naive buffered %d of %d bytes; accounting broken", r.Buffer, r.Bytes)
		}
		if r.Query == "q1" && r.Mode == ModeFluX && r.Buffer != 0 {
			t.Errorf("flux q1 buffered %d bytes, want 0", r.Buffer)
		}
	}
	table := FormatTable(rows, []Mode{ModeFluX, ModeNaive})
	for _, want := range []string{"q1", "q20", "flux (time/mem)", "naive (time/mem)"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestRunSkipsBaselinesAboveLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("generates documents")
	}
	rows, err := Run(Config{
		SizesMB:       []int{1},
		Queries:       []string{"q13"},
		Modes:         []Mode{ModeFluX, ModeNaive},
		Seed:          1,
		MaxBaselineMB: 0, // unlimited
		WorkDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rows
	rows2, err := Run(Config{
		SizesMB:       []int{2},
		Queries:       []string{"q13"},
		Modes:         []Mode{ModeFluX, ModeNaive},
		Seed:          1,
		MaxBaselineMB: 1,
		WorkDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var naiveSkipped, fluxSkipped bool
	for _, r := range rows2 {
		if r.Mode == ModeNaive && r.Skipped {
			naiveSkipped = true
		}
		if r.Mode == ModeFluX && r.Skipped {
			fluxSkipped = true
		}
	}
	if !naiveSkipped {
		t.Error("naive baseline not skipped above MaxBaselineMB")
	}
	if fluxSkipped {
		t.Error("flux engine must never be skipped")
	}
	table := FormatTable(rows2, []Mode{ModeFluX, ModeNaive})
	if !strings.Contains(table, "skipped") {
		t.Errorf("table should render skipped cells:\n%s", table)
	}
}

func TestRunAblationMode(t *testing.T) {
	if testing.Short() {
		t.Skip("generates documents")
	}
	rows, err := Run(Config{
		SizesMB: []int{1},
		Queries: []string{"q20"},
		Modes:   []Mode{ModeFluX, ModeFluXNoSchema},
		Seed:    1,
		WorkDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sched, unsched int64
	for _, r := range rows {
		switch r.Mode {
		case ModeFluX:
			sched = r.Buffer
		case ModeFluXNoSchema:
			unsched = r.Buffer
		}
	}
	// Scheduling buffers one person; the fallback buffers every selected
	// person until end of stream.
	if sched == 0 || unsched == 0 || sched*10 > unsched {
		t.Errorf("ablation shape wrong: scheduled %d vs unscheduled %d", sched, unsched)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:          "0",
		702:        "702",
		4660:       "4.66k",
		46600:      "46.60k",
		3_160_000:  "3.16M",
		32_250_000: "32.25M",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestCheckFluxFastest(t *testing.T) {
	row := func(q string, size int, mode Mode, ms int) Row {
		return Row{Query: q, SizeMB: size, Mode: mode, Elapsed: time.Duration(ms) * time.Millisecond}
	}
	// Flux at or below both baselines on every cell: invariant holds
	// (ties allowed — the gate is "not slower").
	if err := CheckFluxFastest([]Row{
		row("q1", 1, ModeFluX, 1000),
		row("q1", 1, ModeNaive, 1000),
		row("q1", 1, ModeProjection, 1500),
		row("q8", 1, ModeFluX, 2000),
		row("q8", 1, ModeNaive, 9000),
	}); err != nil {
		t.Fatalf("invariant must hold: %v", err)
	}
	// Flux slower than projection on one cell: violated, cell named.
	err := CheckFluxFastest([]Row{
		row("q20", 2, ModeFluX, 3000),
		row("q20", 2, ModeNaive, 9000),
		row("q20", 2, ModeProjection, 2500),
	})
	if err == nil || !strings.Contains(err.Error(), "q20 2MB") {
		t.Fatalf("projection win must violate the invariant naming the cell, got %v", err)
	}
	// Flux slower than naive: violated too.
	if err := CheckFluxFastest([]Row{
		row("q1", 1, ModeFluX, 5000),
		row("q1", 1, ModeNaive, 4000),
	}); err == nil {
		t.Fatal("naive win must violate the invariant")
	}
	// Skipped baselines (too large for in-memory modes), cells with no
	// flux row and the ablation column are ignored.
	skipped := row("q1", 50, ModeNaive, 0)
	skipped.Skipped = true
	if err := CheckFluxFastest([]Row{
		row("q1", 50, ModeFluX, 1000),
		skipped,
		row("q8", 1, ModeNaive, 1),
		row("q20", 1, ModeFluX, 1000),
		row("q20", 1, ModeFluXNoSchema, 1),
	}); err != nil {
		t.Fatalf("skipped/unmatched rows must pass: %v", err)
	}
}
