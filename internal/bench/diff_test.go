package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func snap(calib int64, rows ...SnapshotRow) *Snapshot {
	return &Snapshot{Schema: "flux-bench/v1", CalibNS: calib, Rows: rows}
}

func row(query string, size int, mode Mode, elapsed, buffer int64) SnapshotRow {
	return SnapshotRow{Query: query, SizeMB: size, Mode: mode, ElapsedNS: elapsed, BufferBytes: buffer}
}

func TestDiffNoRegression(t *testing.T) {
	old := snap(100,
		row("q1", 1, ModeFluX, 1000, 0),
		row(SharedQueryName, 1, ModeShared, 5000, 140000),
	)
	new := snap(100,
		row("q1", 1, ModeFluX, 5000, 0), // per-query elapsed is NOT gated
		row(SharedQueryName, 1, ModeShared, 5500, 140000),
	)
	res := Diff(old, new, 20)
	if res.Compared != 2 || len(res.Regressions) != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestDiffSharedElapsedRegression(t *testing.T) {
	old := snap(100, row(SharedQueryName, 1, ModeShared, 5000, 140000))
	new := snap(100, row(SharedQueryName, 1, ModeShared, 6500, 140000))
	res := Diff(old, new, 20)
	if len(res.Regressions) != 1 || res.Regressions[0].Metric != "elapsed_ns" {
		t.Fatalf("res = %+v", res)
	}
}

func TestDiffCalibrationScaling(t *testing.T) {
	// The new machine is 2x slower (calibration 100 -> 200); a 2x wall
	// time is therefore NOT a regression...
	old := snap(100, row(SharedQueryName, 1, ModeShared, 5000, 140000))
	new := snap(200, row(SharedQueryName, 1, ModeShared, 10000, 140000))
	if res := Diff(old, new, 20); len(res.Regressions) != 0 {
		t.Fatalf("scaled comparison must pass: %+v", res)
	}
	// ...but 3x is, even after scaling.
	new = snap(200, row(SharedQueryName, 1, ModeShared, 15000, 140000))
	if res := Diff(old, new, 20); len(res.Regressions) != 1 {
		t.Fatalf("scaled regression must fail: %+v", res)
	}
}

func TestDiffBufferRegression(t *testing.T) {
	old := snap(100, row("q8", 1, ModeFluX, 1000, 100000))
	new := snap(100, row("q8", 1, ModeFluX, 1000, 160000))
	res := Diff(old, new, 20)
	if len(res.Regressions) != 1 || res.Regressions[0].Metric != "buffer_bytes" {
		t.Fatalf("res = %+v", res)
	}
	// Small absolute growth under the slack is ignored even when the
	// percentage is huge (0 -> a handful of bytes).
	old = snap(100, row("q1", 1, ModeFluX, 1000, 0))
	new = snap(100, row("q1", 1, ModeFluX, 1000, 128))
	if res := Diff(old, new, 20); len(res.Regressions) != 0 {
		t.Fatalf("slack must absorb tiny growth: %+v", res)
	}
}

func TestDiffIgnoresUnmatchedAndSkipped(t *testing.T) {
	old := snap(100, row("q1", 1, ModeFluX, 1000, 0))
	skipped := row("q1", 1, ModeNaive, 0, 0)
	skipped.Skipped = true
	new := snap(100,
		row("q1", 1, ModeFluX, 1000, 0),
		row(SharedQueryName, 1, ModeShared, 5000, 140000), // new mode, no baseline
		skipped,
	)
	res := Diff(old, new, 20)
	if res.Compared != 1 || len(res.Regressions) != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestDiffPercentileRegression(t *testing.T) {
	lat := func(p50, p99 int64) SnapshotRow {
		return SnapshotRow{Query: ServedQueryName, SizeMB: 1, Mode: ModeServedLatency,
			P50NS: p50, P99NS: p99}
	}
	// Percentiles gate at percentileSlackFactor (2x) the threshold:
	// +35% on both passes a 20% diff where elapsed_ns would not.
	res := Diff(snap(100, lat(1000, 5000)), snap(100, lat(1350, 6750)), 20)
	if res.Compared != 1 || len(res.Regressions) != 0 {
		t.Fatalf("res = %+v", res)
	}
	// p99 blows the widened threshold while p50 holds: exactly the tail
	// is named, and the reported limit is the widened one.
	res = Diff(snap(100, lat(1000, 5000)), snap(100, lat(1100, 9000)), 20)
	if len(res.Regressions) != 1 || res.Regressions[0].Metric != "p99_ns" {
		t.Fatalf("res = %+v", res)
	}
	if res.Regressions[0].LimitPct != 40 {
		t.Fatalf("percentile limit must be widened to 40%%, got %+v", res.Regressions[0])
	}
	// Both percentiles regress: both rows appear.
	res = Diff(snap(100, lat(1000, 5000)), snap(100, lat(2000, 9000)), 20)
	if len(res.Regressions) != 2 {
		t.Fatalf("res = %+v", res)
	}
	// Calibration scaling applies: a 2x slower machine with 2x latencies
	// is not a regression.
	if res := Diff(snap(100, lat(1000, 5000)), snap(200, lat(2000, 10000)), 20); len(res.Regressions) != 0 {
		t.Fatalf("scaled percentiles must pass: %+v", res)
	}
	// Rows without percentiles (older snapshots) diff cleanly.
	if res := Diff(snap(100, lat(0, 0)), snap(100, lat(1100, 9000)), 20); len(res.Regressions) != 0 {
		t.Fatalf("missing baseline percentiles must not gate: %+v", res)
	}
}

func TestCheckFluxFastest(t *testing.T) {
	// Flux at or below both baselines on every cell: invariant holds
	// (ties allowed — the gate is "not slower").
	if err := CheckFluxFastest(snap(100,
		row("q1", 1, ModeFluX, 1000, 0),
		row("q1", 1, ModeNaive, 1000, 0),
		row("q1", 1, ModeProjection, 1500, 0),
		row("q8", 1, ModeFluX, 2000, 0),
		row("q8", 1, ModeNaive, 9000, 0))); err != nil {
		t.Fatalf("invariant must hold: %v", err)
	}
	// Flux slower than projection on one cell: violated, cell named.
	err := CheckFluxFastest(snap(100,
		row("q20", 2, ModeFluX, 3000, 0),
		row("q20", 2, ModeNaive, 9000, 0),
		row("q20", 2, ModeProjection, 2500, 0)))
	if err == nil || !strings.Contains(err.Error(), "q20 2MB") {
		t.Fatalf("projection win must violate the invariant naming the cell, got %v", err)
	}
	// Flux slower than naive: violated too.
	if err := CheckFluxFastest(snap(100,
		row("q1", 1, ModeFluX, 5000, 0),
		row("q1", 1, ModeNaive, 4000, 0))); err == nil {
		t.Fatal("naive win must violate the invariant")
	}
	// Skipped baselines (too large for in-memory modes) and cells with no
	// flux row are ignored.
	skipped := row("q1", 50, ModeNaive, 0, 0)
	skipped.Skipped = true
	if err := CheckFluxFastest(snap(100,
		row("q1", 50, ModeFluX, 1000, 0),
		skipped,
		row("q8", 1, ModeNaive, 1, 0))); err != nil {
		t.Fatalf("skipped/unmatched rows must pass: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rows := []Row{
		{Query: "q1", SizeMB: 1, Bytes: 100, Mode: ModeFluX, Buffer: 0, Output: 5},
		{Query: SharedQueryName, SizeMB: 1, Bytes: 100, Mode: ModeShared, Buffer: 7, Output: 9},
	}
	if err := WriteJSON(path, rows); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rows) != 2 || snap.CalibNS <= 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Rows[1].Mode != ModeShared || snap.Rows[1].BufferBytes != 7 {
		t.Fatalf("rows = %+v", snap.Rows)
	}
}

func TestCheckFanout(t *testing.T) {
	fan := func(mode Mode, size int, tokens, output int64) SnapshotRow {
		return SnapshotRow{Query: FanoutQueryName, SizeMB: size, Mode: mode, TokensDelivered: tokens, OutputBytes: output}
	}
	// Automaton strictly below all-fanout, same output: invariant holds.
	if err := CheckFanout(snap(100, fan(ModeFanoutAll, 1, 1000, 50), fan(ModeFanoutAutomaton, 1, 100, 50))); err != nil {
		t.Fatalf("invariant must hold: %v", err)
	}
	// Equal counts: violated (routing must deliver strictly fewer).
	if err := CheckFanout(snap(100, fan(ModeFanoutAll, 1, 1000, 50), fan(ModeFanoutAutomaton, 1, 1000, 50))); err == nil {
		t.Fatal("equal event counts must violate the invariant")
	}
	// Fewer events but different output: routing withheld something a
	// query needed.
	err := CheckFanout(snap(100, fan(ModeFanoutAll, 1, 1000, 50), fan(ModeFanoutAutomaton, 1, 100, 49)))
	if err == nil || !strings.Contains(err.Error(), "output bytes") {
		t.Fatalf("output mismatch must fail naming the output, got %v", err)
	}
	// Snapshots without fan-out rows pass vacuously.
	if err := CheckFanout(snap(100, row("q1", 1, ModeFluX, 1000, 0))); err != nil {
		t.Fatalf("vacuous snapshot must pass: %v", err)
	}
	// A lone mode passes too.
	if err := CheckFanout(snap(100, fan(ModeFanoutAutomaton, 1, 100, 50))); err != nil {
		t.Fatalf("lone automaton row must pass: %v", err)
	}
}

func TestCheckStreamEquivalence(t *testing.T) {
	st := func(mode Mode, size int, output int64) SnapshotRow {
		return SnapshotRow{Query: StreamQueryName, SizeMB: size, Mode: mode, OutputBytes: output}
	}
	// Identical output holds the invariant; buffer and token divergence
	// is expected (no scanner pruning on the streaming path) and ignored.
	ok := st(ModeStreamReplay, 1, 9000)
	ok.BufferBytes, ok.TokensDelivered = 555, 777
	if err := CheckStreamEquivalence(snap(100, st(ModeStreamStatic, 1, 9000), ok)); err != nil {
		t.Fatalf("equal output must pass: %v", err)
	}
	// Output divergence means chunked ingestion changed results.
	err := CheckStreamEquivalence(snap(100, st(ModeStreamStatic, 1, 9000), st(ModeStreamReplay, 1, 8999)))
	if err == nil || !strings.Contains(err.Error(), "stream 1MB") {
		t.Fatalf("output mismatch must fail naming the size, got %v", err)
	}
	// Snapshots without stream rows (or with a lone mode) pass vacuously.
	if err := CheckStreamEquivalence(snap(100, row("q1", 1, ModeFluX, 1000, 0))); err != nil {
		t.Fatalf("vacuous snapshot must pass: %v", err)
	}
	if err := CheckStreamEquivalence(snap(100, st(ModeStreamReplay, 1, 9000))); err != nil {
		t.Fatalf("lone replay row must pass: %v", err)
	}
}

func TestRegressionString(t *testing.T) {
	r := Regression{
		Query: "shared", SizeMB: 1, Mode: ModeShared, Metric: "elapsed_ns",
		Old: 1000, New: 1500, LimitPct: 20, Allowed: 1200,
	}
	s := r.String()
	for _, want := range []string{"shared/1MB/shared-scan", "1000", "1500", "+50.0%", "limit +20%", "1200"} {
		if !strings.Contains(s, want) {
			t.Errorf("regression message %q missing %q", s, want)
		}
	}
}

func TestRegressionAllowedIncludesSlack(t *testing.T) {
	// Old 1000 at 10%: the percentage bound (1100) is under the absolute
	// slack ceiling (1000+4096), so Allowed must report the slack value —
	// the number a fix actually has to get under.
	old := snap(100, row("q8", 1, ModeFluX, 1000, 1000))
	new := snap(100, row("q8", 1, ModeFluX, 1000, 6000))
	res := Diff(old, new, 10)
	if len(res.Regressions) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if got := res.Regressions[0].Allowed; got != 1000+bufferSlackBytes {
		t.Fatalf("Allowed = %d, want %d (percentage bound alone understates the gate)", got, 1000+bufferSlackBytes)
	}
}

func TestCheckSharded(t *testing.T) {
	served := func(mode Mode, size int, output, tokens int64) SnapshotRow {
		return SnapshotRow{Query: ServedQueryName, SizeMB: size, Mode: mode,
			OutputBytes: output, TokensDelivered: tokens}
	}
	// Identical output and tokens hold the invariant.
	if err := CheckSharded(snap(100,
		served(ModeServedSingle, 1, 9000, 5000),
		served(ModeServedSharded, 1, 9000, 5000))); err != nil {
		t.Fatalf("equal rows must pass: %v", err)
	}
	// Output divergence is a routing bug.
	err := CheckSharded(snap(100,
		served(ModeServedSingle, 1, 9000, 5000),
		served(ModeServedSharded, 1, 8999, 5000)))
	if err == nil || !strings.Contains(err.Error(), "output") {
		t.Fatalf("output mismatch must fail naming output, got %v", err)
	}
	// Token divergence means sharding changed the scan work.
	err = CheckSharded(snap(100,
		served(ModeServedSingle, 1, 9000, 5000),
		served(ModeServedSharded, 1, 9000, 5001)))
	if err == nil || !strings.Contains(err.Error(), "tokens") {
		t.Fatalf("token mismatch must fail naming tokens, got %v", err)
	}
	// Snapshots without served rows (or with a lone mode) pass vacuously.
	if err := CheckSharded(snap(100, row("q1", 1, ModeFluX, 1000, 0))); err != nil {
		t.Fatalf("vacuous snapshot must pass: %v", err)
	}
	if err := CheckSharded(snap(100, served(ModeServedSharded, 1, 9000, 5000))); err != nil {
		t.Fatalf("lone sharded row must pass: %v", err)
	}
}
