package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// Snapshot is the JSON artifact one benchmark run leaves behind (the
// BENCH_<n>.json files at the repository root): enough context to compare
// runs across commits and machines, plus the raw rows.
type Snapshot struct {
	// Schema names the snapshot layout, for forward compatibility.
	Schema string `json:"schema"`
	// CreatedAt is the wall-clock time the snapshot was written.
	CreatedAt time.Time `json:"created_at"`
	// GoVersion and NumCPU describe the machine that produced the rows.
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// CalibNS is the duration of a fixed CPU-bound reference loop on the
	// machine that produced the rows; Diff uses the ratio of two
	// snapshots' calibrations to compare elapsed times across machines
	// of different speeds. 0 in snapshots predating calibration.
	CalibNS int64 `json:"calib_ns,omitempty"`
	// Rows are the raw measurements.
	Rows []SnapshotRow `json:"rows"`
}

// Calibrate times the fixed reference loop that makes elapsed
// comparisons across machines meaningful.
func Calibrate() int64 {
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 1<<25; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start).Nanoseconds()
}

// calibSink keeps the calibration loop observable so the compiler
// cannot elide it.
var calibSink uint64

// SnapshotRow is one Row with the duration flattened to nanoseconds so
// the JSON is toolable without Go's duration syntax.
type SnapshotRow struct {
	Query       string `json:"query"`
	SizeMB      int    `json:"size_mb"`
	Bytes       int64  `json:"bytes"`
	Mode        Mode   `json:"mode"`
	ElapsedNS   int64  `json:"elapsed_ns"`
	BufferBytes int64  `json:"buffer_bytes"`
	OutputBytes int64  `json:"output_bytes"`
	// TokensDelivered is the summed events delivered to the row's
	// queries (see ModeFanoutAll/ModeFanoutAutomaton).
	TokensDelivered int64 `json:"tokens_delivered,omitempty"`
	// P50NS/P99NS/QPS are the open-loop latency percentiles and achieved
	// throughput of served-latency rows (see ModeServedLatency).
	P50NS   int64   `json:"p50_ns,omitempty"`
	P99NS   int64   `json:"p99_ns,omitempty"`
	QPS     float64 `json:"qps,omitempty"`
	Skipped bool    `json:"skipped,omitempty"`
}

// WriteJSON writes rows as a Snapshot to path.
func WriteJSON(path string, rows []Row) error {
	snap := Snapshot{
		Schema:    "flux-bench/v1",
		CreatedAt: time.Now().UTC(),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		CalibNS:   Calibrate(),
	}
	for _, r := range rows {
		snap.Rows = append(snap.Rows, SnapshotRow{
			Query:           r.Query,
			SizeMB:          r.SizeMB,
			Bytes:           r.Bytes,
			Mode:            r.Mode,
			ElapsedNS:       r.Elapsed.Nanoseconds(),
			BufferBytes:     r.Buffer,
			OutputBytes:     r.Output,
			TokensDelivered: r.Tokens,
			P50NS:           r.P50.Nanoseconds(),
			P99NS:           r.P99.Nanoseconds(),
			QPS:             r.QPS,
			Skipped:         r.Skipped,
		})
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
