package shard

import (
	"sort"

	"flux"
)

// MergedStats is fluxrouter's /stats payload: every reachable shard's
// own flux.ServerStats snapshot plus one rollup aggregating them, so a
// dashboard reads the tier as a single process and an operator can
// still drill into any shard.
type MergedStats struct {
	// Rollup aggregates the per-shard snapshots: per-document counters
	// summed across shards (peak_batch_size and automaton_states, the
	// gauges, take the max), and cache and admission counters summed.
	// For replicated documents the rollup entry is the total across
	// replicas.
	Rollup flux.ServerStats `json:"rollup"`
	// PerShard holds each reachable shard's own snapshot, keyed by
	// decimal shard id.
	PerShard map[string]flux.ServerStats `json:"per_shard"`
	// Missing lists the shards whose snapshot could not be fetched,
	// keyed like PerShard. A non-empty Missing means Rollup undercounts.
	Missing []string `json:"missing,omitempty"`
}

// Merge aggregates per-shard snapshots (keyed by shard id) into a
// MergedStats. The rollup is pure arithmetic over the inputs — summing
// every additive counter and taking the max of the gauges — so rollup
// equals the shard sums exactly; the router's integration tests assert
// that.
func Merge(per map[string]flux.ServerStats) MergedStats {
	out := MergedStats{
		Rollup:   flux.ServerStats{Docs: make(map[string]flux.DocStats)},
		PerShard: per,
	}
	keys := make([]string, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := per[k]
		for doc, d := range st.Docs {
			out.Rollup.Docs[doc] = addDocStats(out.Rollup.Docs[doc], d)
		}
		out.Rollup.Cache.Hits += st.Cache.Hits
		out.Rollup.Cache.Misses += st.Cache.Misses
		out.Rollup.Cache.Evictions += st.Cache.Evictions
		out.Rollup.Cache.Size += st.Cache.Size
		out.Rollup.Admission.Active += st.Admission.Active
		out.Rollup.Admission.ResidentBufferBytes += st.Admission.ResidentBufferBytes
		out.Rollup.Admission.Waiting += st.Admission.Waiting
		out.Rollup.Admission.Queued += st.Admission.Queued
		out.Rollup.Admission.Admitted += st.Admission.Admitted
	}
	return out
}

// addDocStats sums two documents' counters; the non-additive gauges —
// peak_batch_size and automaton_states — take the max.
func addDocStats(a, b flux.DocStats) flux.DocStats {
	a.Queries += b.Queries
	a.Scans += b.Scans
	a.Shared += b.Shared
	a.Canceled += b.Canceled
	a.EventsSkipped += b.EventsSkipped
	a.AutomatonHits += b.AutomatonHits
	if b.PeakBatch > a.PeakBatch {
		a.PeakBatch = b.PeakBatch
	}
	if b.AutomatonStates > a.AutomatonStates {
		a.AutomatonStates = b.AutomatonStates
	}
	return a
}
