package main

import (
	"cmp"
	"context"
	"fmt"
	"time"
)

// topRung re-runs the workload's own loop in short alternating windows,
// untraced and traced, so the cost of recording spans is measured on the
// end-to-end call itself. The overhead is the change in a window's
// typical operation latency from the untraced window to the traced one
// right after it, median over the pairs, in percent: neighbours in time
// share the machine's state, which moves more than tracing does.
// Typical is the mean where one caller runs pass after pass (the pass
// time per operation) and the median where requests are served (a mean
// would follow the few expensive joins). The returned measurement pools
// every window, latencies included.
func topRung(ctx context.Context, e *env, tr *tracer, budget time.Duration) (overheadPct float64, m measurement) {
	const rounds = 6 // an untraced and a traced window per round
	window := budget / (2 * rounds)
	typical := median
	if e.spec.loop == loopScan || e.spec.loop == loopStream {
		typical = mean
	}
	var change []float64
	for i := 0; i < rounds; i++ {
		plain := e.run(ctx, window, nil)
		traced := e.run(ctx, window, tr)
		base := typical(plain.lat)
		change = append(change, 100*ratio(typical(traced.lat)-base, base))
		for _, r := range []measurement{plain, traced} {
			m.lat = append(m.lat, r.lat...)
			m.ops = append(m.ops, r.ops...)
			m.attempted += r.attempted
			m.failed += r.failed
			m.firstErr = cmp.Or(m.firstErr, r.firstErr)
		}
	}
	return median(change), m
}

// sweepFactors give the open loop's offered rates in the traced run:
// once, twice and four times the rate the workload is gated at.
var sweepFactors = []float64{1, 2, 4}

// sustainedLimitMs is the p95 latency limit a swept rate must meet to
// count as sustained.
const sustainedLimitMs = 50

// sweep replays the open loop's schedule at several rates and reports
// the p95 latency at each and the highest rate that stays under the
// limit with a backlog that does not grow. Only an open-loop workload
// has a schedule to sweep.
func sweep(ctx context.Context, e *env, budget time.Duration) (map[string]float64, measurement) {
	out := map[string]float64{}
	var total measurement
	window := budget / time.Duration(len(sweepFactors))
	for _, f := range sweepFactors {
		rate := e.spec.rate * f
		// The schedule compressed or stretched in time offers the same
		// request sequence at another rate.
		at := func(i int) request {
			r := e.reqs[i]
			r.due = time.Duration(float64(r.due) / f)
			return r
		}
		n := min(int(rate*window.Seconds()), len(e.reqs))
		ops := e.drive(ctx, at, discipline{open: true, limit: n}, e.issue(), nil, 0)
		m := e.measureOps(ops, window)
		total.attempted += m.attempted
		total.failed += m.failed
		total.firstErr = cmp.Or(total.firstErr, m.firstErr)
		p95 := quantile(sortedCopy(m.lat), 0.95)
		out[fmt.Sprintf("executor.sweep_p95_ms@%.0f", rate)] = p95
		keptUp := m.notes["achieved_qps"] >= 0.99*m.notes["offered_qps"]
		if m.failed == 0 && keptUp && p95 <= sustainedLimitMs {
			out["executor.sustained_qps"] = max(out["executor.sustained_qps"], rate)
		}
	}
	return out, total
}

// values turns the ladder's recordings into the per-layer metrics. The
// rung differences it takes are written out in the README's glossary.
func (l *ladder) values(top measurement, overheadPct float64) map[string]float64 {
	e := l.e
	T := func(rung string) float64 { return median(l.wall[rung]) }
	c := func(name string) float64 { return float64(l.counts[name]) }
	mbD, mbU, mbR := l.bytesD/1e6, l.bytesU/1e6, l.bytesR/1e6
	p50 := func(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

	routeSelf := T("route") - T("prune")
	engineSelf := T("solo") - T("prune-solo")

	var observed, predicted, soloSum float64
	for key, peak := range l.peaks {
		observed += float64(peak)
		predicted += float64(l.plan(key[1]).PredictedPeakBytes())
	}
	for _, u := range l.units {
		for _, qi := range u.queries {
			soloSum += median(l.solo[[2]int{u.doc, qi}])
		}
	}

	var queries, scans, autoHits, peakBatch float64
	for _, st := range l.ex.Stats() {
		queries += float64(st.Queries)
		scans += float64(st.Scans)
		autoHits += float64(st.AutomatonHits)
		peakBatch = max(peakBatch, float64(st.PeakBatch))
	}
	cache := l.cat.CacheStats()
	// What the Executor added to each request it served: the batch it
	// rode in, and its latency beyond the same query's solo run.
	var batchSum, served float64
	var overhead []float64
	for _, op := range l.execOps {
		if op.err != nil {
			continue
		}
		served++
		batchSum += float64(op.batch)
		if solo := l.solo[[2]int{op.req.doc, op.req.query}]; len(solo) > 0 {
			overhead = append(overhead, float64(op.end-op.from)/1e6-median(solo)*1e3)
		}
	}

	return map[string]float64{
		"xmark.generate_mb_s": ratio(float64(e.genBytes)/1e6, e.genTime.Seconds()),
		"compile.prepare_ms":  median(l.series["compile.prepare_ms"]),

		"catalog.cache_hit_ratio": ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses)),
		"catalog.prepare_hit_us":  median(l.series["catalog.prepare_hit_us"]),
		"catalog.admit_queued":    float64(l.cat.AdmissionStats().Queued),

		"sax.tokenize_mb_s":      ratio(mbD, T("tokenize")),
		"sax.pruned_mb_s":        ratio(mbU, T("prune")),
		"sax.chunked_mb_s":       ratio(mbD, T("chunked")),
		"sax.tokens_per_mb":      ratio(c("tokenize.tokens"), mbD),
		"sax.pruned_token_ratio": ratio(ratio(c("prune.tokens"), mbU), ratio(c("tokenize.tokens"), mbD)),
		"sax.allocs_per_mb":      ratio(c("tokenize.mallocs"), mbD),
		"sax.self_share":         ratio(T("prune-solo"), T("query")),

		"autom.build_us":             median(l.series["autom.build_us"]),
		"autom.states":               median(l.series["autom.states"]),
		"autom.route_ns_per_token":   ratio(routeSelf*1e9, c("route.tokens")),
		"autom.deliveries_per_token": ratio(c("route.deliveries"), c("route.tokens")),
		"autom.self_share":           ratio(routeSelf, T("shared")),

		"engine.eval_self_ms":            engineSelf * 1e3,
		"engine.ns_per_token":            ratio(engineSelf*1e9, c("solo.tokens")),
		"engine.self_share":              ratio(engineSelf, T("query")),
		"engine.alloc_bytes_per_mb":      ratio(c("solo.alloc_bytes"), mbR),
		"engine.peak_buffer_bytes":       observed,
		"engine.predicted_peak_bytes":    predicted,
		"engine.predicted_over_observed": ratio(predicted, observed),

		"mux.run_ms":           T("shared") * 1e3,
		"mux.sharing_gain":     ratio(soloSum, T("shared")),
		"mux.tokens_delivered": c("shared.delivered"),
		"mux.events_skipped":   c("shared.skipped"),

		"executor.mean_batch":          ratio(batchSum, served),
		"executor.peak_batch":          peakBatch,
		"executor.scans_per_query":     ratio(scans, queries),
		"executor.automaton_hit_ratio": ratio(autoHits, scans),
		"executor.overhead_p50_ms":     median(overhead),
		"executor.latency_p99_ms":      quantile(sortedCopy(top.lat), 0.99),

		"shard.server_hop_p50_ms": p50(l.lats["server"]) - p50(l.lats["executor"]),
		"shard.router_hop_p50_ms": p50(l.lats["router"]) - p50(l.lats["server"]),

		"stream.hub_overhead_share":  1 - ratio(T("stream-mux"), T("hub")),
		"stream.first_result_p50_ms": median(l.series["stream.first_result_ms"]),
		"stream.result_lag_p50_ms":   median(l.series["stream.result_lag_ms"]),
		"stream.dropped_bytes":       c("hub.dropped_bytes"),
		"ladder.residual_share":      ratio(T("query")-T("solo"), T("query")),
		"trace.overhead_pct":         overheadPct,
	}
}
