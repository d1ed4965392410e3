package shard

import (
	"testing"

	"flux"
)

// TestMergeRollupArithmetic: the rollup is the exact sum of the
// per-shard sections — every additive counter summed, peak batch maxed.
func TestMergeRollupArithmetic(t *testing.T) {
	per := map[string]flux.ServerStats{
		"0": {
			Docs: map[string]flux.DocStats{
				"alpha": {Queries: 10, Scans: 4, Shared: 8, PeakBatch: 3, Canceled: 1, EventsSkipped: 100},
				"both":  {Queries: 5, Scans: 5, PeakBatch: 1},
			},
			Cache:     flux.CacheStats{Hits: 7, Misses: 3, Evictions: 1, Size: 3},
			Admission: flux.AdmissionStats{Active: 1, ResidentBufferBytes: 4096, Waiting: 2, Queued: 5, Admitted: 9},
		},
		"1": {
			Docs: map[string]flux.DocStats{
				"beta": {Queries: 20, Scans: 2, PeakBatch: 10},
				"both": {Queries: 7, Scans: 3, PeakBatch: 4},
			},
			Cache:     flux.CacheStats{Hits: 1, Misses: 9, Size: 9},
			Admission: flux.AdmissionStats{Admitted: 5},
		},
	}
	got := Merge(per)

	if d := got.Rollup.Docs["both"]; d.Queries != 12 || d.Scans != 8 || d.PeakBatch != 4 {
		t.Errorf("rollup.both = %+v, want queries 12, scans 8, peak 4 (max)", d)
	}
	if d := got.Rollup.Docs["alpha"]; d.EventsSkipped != 100 || d.Canceled != 1 || d.Shared != 8 {
		t.Errorf("rollup.alpha = %+v, want shard 0's counters verbatim", d)
	}
	if c := got.Rollup.Cache; c.Hits != 8 || c.Misses != 12 || c.Evictions != 1 || c.Size != 12 {
		t.Errorf("rollup.cache = %+v", c)
	}
	if a := got.Rollup.Admission; a.Active != 1 || a.ResidentBufferBytes != 4096 || a.Waiting != 2 || a.Queued != 5 || a.Admitted != 14 {
		t.Errorf("rollup.admission = %+v", a)
	}
	if len(got.PerShard) != 2 {
		t.Errorf("per_shard kept %d entries, want 2", len(got.PerShard))
	}
}

// TestMergeEmpty: merging nothing yields a zero rollup with an empty,
// non-nil document map, so the JSON payload keeps its shape.
func TestMergeEmpty(t *testing.T) {
	got := Merge(nil)
	if got.Rollup.Docs == nil || len(got.Rollup.Docs) != 0 {
		t.Errorf("empty merge docs = %v, want an empty map", got.Rollup.Docs)
	}
	if got.Rollup.Cache != (flux.CacheStats{}) || got.Rollup.Admission != (flux.AdmissionStats{}) {
		t.Errorf("empty merge rollup = %+v, want zero counters", got.Rollup)
	}
}
