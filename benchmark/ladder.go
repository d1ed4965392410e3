package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"flux"
	"flux/internal/autom"
	"flux/internal/engine"
	"flux/internal/mux"
	"flux/internal/sax"
	"flux/internal/xmark"
)

// The traced run is a ladder. A layer can only be timed from outside by
// calling it, so the workload's own inputs are put through cumulatively
// longer pipelines — the rungs — one span per call, and a layer's self
// time is the difference between two rungs. The inputs are a sample of
// the workload's requests and the scan units they form: the group of
// queries that share one pass of one document (a single query where the
// workload runs queries alone, up to a full batch of 16 where it
// serves them through the Executor, all subscriptions where it streams).

// unit is one scan's worth of work: a document and the distinct queries
// evaluated in one pass over it.
type unit struct {
	doc     int
	queries []int
	mach    *autom.Machine
}

// scanOpt is how every layer above the scanner configures it.
var scanOpt = sax.Options{SkipWhitespaceText: true}

// sampleRequests bounds the ladder's request sample on the serving
// workloads; the scan and stream workloads use each query once.
const sampleRequests = 64

// maxUnit is the Executor's default batch bound.
const maxUnit = flux.DefaultMaxBatch

// ladder holds one traced run's state.
type ladder struct {
	e   *env
	ctx context.Context
	tr  *tracer

	sample []request
	units  []unit
	docs   []int   // the distinct documents the units scan
	bytesD float64 // bytes of those documents
	bytesU float64 // bytes scanned by one pass over every unit
	bytesR float64 // bytes scanned by one pass over every sampled request

	cat  *flux.Catalog // file-backed, for the query and executor rungs
	ex   *flux.Executor
	tier *tier // the workload's own, or one built for the ladder

	wall   map[string][]float64 // rung -> seconds per pass
	counts map[string]int64     // exact counts, as of the last pass
	solo   map[[2]int][]float64 // (document, query) -> solo engine seconds, per pass
	peaks  map[[2]int]int64     // (document, query) -> solo peak buffer bytes
	lats   map[string][]float64 // rung -> request latencies, ms
	series map[string][]float64 // further per-call samples by name
	// execOps are the requests the executor rung served; a workload
	// whose own loop drives an Executor in this process overrides them
	// with the top rung's, which are more and under its real discipline.
	execOps []opResult

	attempted, failed int64
	firstErr          error
}

// countHandler is the no-op consumer of the scanner rungs.
type countHandler struct{ tokens int64 }

func (h *countHandler) HandleBatch(b *sax.Batch) error {
	h.tokens += int64(len(b.Tokens))
	return nil
}

// routeHandler feeds every token to a merged-automaton matcher, as the
// selective mux does, and delivers nothing.
type routeHandler struct {
	m                  *autom.Matcher
	tokens, deliveries int64
}

func (h *routeHandler) HandleBatch(b *sax.Batch) error {
	h.tokens += int64(len(b.Tokens))
	for i := range b.Tokens {
		switch t := &b.Tokens[i]; t.Kind {
		case sax.StartElement:
			deliver, skip := h.m.Start(t.Name)
			h.deliveries += int64(deliver.Count() + skip.Count())
		case sax.EndElement:
			h.deliveries += int64(h.m.End().Count())
		case sax.SkipElement:
			h.deliveries += int64(h.m.Skip().Count())
		default:
			h.deliveries += int64(h.m.Text().Count())
		}
	}
	return nil
}

func newLadder(ctx context.Context, e *env, tr *tracer) (*ladder, error) {
	l := &ladder{
		e: e, ctx: ctx, tr: tr,
		wall: map[string][]float64{}, counts: map[string]int64{},
		solo: map[[2]int][]float64{}, peaks: map[[2]int]int64{},
		lats: map[string][]float64{}, series: map[string][]float64{},
	}
	switch e.spec.loop {
	case loopScan, loopStream:
		l.sample = e.reqs
	default:
		l.sample = e.reqs[:min(len(e.reqs), sampleRequests)]
	}
	for _, r := range l.sample {
		l.bytesR += float64(len(e.docs[r.doc].data))
	}
	l.formUnits()

	// Cold compilation, once per distinct query: parse, normalize,
	// rewrite, schedule, engine.Compile — what a query-cache miss costs.
	schema, err := e.cat.Schema(e.docs[0].name)
	if err != nil {
		return nil, err
	}
	for _, q := range e.queries {
		start := time.Now()
		if _, err := flux.PrepareWithSchema(q.text, schema); err != nil {
			return nil, err
		}
		l.series["compile.prepare_ms"] = append(l.series["compile.prepare_ms"], float64(time.Since(start))/1e6)
	}

	// The serving rungs need the documents on disk, an Executor and a
	// tier; a workload that serves brings its own.
	if err := e.writeDocs(); err != nil {
		return nil, err
	}
	l.cat, l.ex, l.tier = e.cat, e.ex, e.tier
	if e.spec.loop == loopScan || e.spec.loop == loopStream {
		l.cat = flux.NewCatalog(flux.CatalogOptions{})
		for _, d := range e.docs {
			if err := l.cat.Add(d.name, d.path, xmark.DTD); err != nil {
				return nil, err
			}
		}
		for _, q := range e.queries { // fill the query cache, as set-up did for e.cat
			if _, err := l.cat.Prepare(e.docs[0].name, q.text); err != nil {
				return nil, err
			}
		}
	}
	if l.ex == nil {
		if l.ex, err = flux.NewExecutor(l.cat, flux.ExecutorOptions{}); err != nil {
			return nil, err
		}
	}
	if l.tier == nil {
		if l.tier, err = newTier(e.docs, e.dtdPath()); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *ladder) close() {
	if l.tier != l.e.tier {
		l.tier.close()
	}
}

// formUnits groups the sample's distinct (document, query) pairs into
// scan units and builds each unit's merged automaton, timing the build.
func (l *ladder) formUnits() {
	size := maxUnit
	if l.e.spec.loop == loopScan {
		size = 1
	}
	seen := map[[2]int]bool{}
	open := map[int]int{} // document -> index of its unit still taking queries
	for _, r := range l.sample {
		key := [2]int{r.doc, r.query}
		if seen[key] {
			continue
		}
		seen[key] = true
		i, ok := open[r.doc]
		if !ok || len(l.units[i].queries) == size {
			l.units = append(l.units, unit{doc: r.doc})
			i = len(l.units) - 1
			open[r.doc] = i
		}
		l.units[i].queries = append(l.units[i].queries, r.query)
	}
	for i := range l.units {
		u := &l.units[i]
		l.bytesU += float64(len(l.e.docs[u.doc].data))
		if !slices.Contains(l.docs, u.doc) {
			l.docs = append(l.docs, u.doc)
			l.bytesD += float64(len(l.e.docs[u.doc].data))
		}
		groups := l.groups(u)
		sp := l.tr.start(0, "autom.build")
		start := time.Now()
		u.mach = autom.Build(groups)
		l.series["autom.build_us"] = append(l.series["autom.build_us"], float64(time.Since(start))/1e3)
		l.tr.finish(sp, map[string]int64{"groups": int64(len(groups)), "states": int64(u.mach.States())})
		l.series["autom.states"] = append(l.series["autom.states"], float64(u.mach.States()))
	}
}

// groups lists the unit's event-routing groups, one per distinct
// signature, in the sorted key order the Executor builds machines in.
func (l *ladder) groups(u *unit) []autom.Group {
	var groups []autom.Group
	for _, qi := range u.queries {
		p := l.plan(qi)
		key := mux.GroupKey(p)
		if !slices.ContainsFunc(groups, func(g autom.Group) bool { return g.Key == key }) {
			groups = append(groups, autom.Group{Key: key, Sig: p.Signature()})
		}
	}
	slices.SortFunc(groups, func(a, b autom.Group) int { return strings.Compare(a.Key, b.Key) })
	return groups
}

func (l *ladder) plan(query int) *engine.Plan { return l.e.queries[query].q.Plan() }

func (l *ladder) reader(doc int) io.Reader { return bytes.NewReader(l.e.docs[doc].data) }

// rung is one step of the ladder: run does one pass's worth of calls
// under the rung's span; climb records its wall time and allocations.
type rung struct {
	name string
	run  func(l *ladder, parent int) error
}

var rungs = []rung{
	{"tokenize", (*ladder).tokenize},
	{"prune", (*ladder).prune},
	{"route", (*ladder).route},
	{"prune-solo", (*ladder).pruneSolo},
	{"solo", (*ladder).soloRuns},
	{"shared", (*ladder).shared},
	{"query", (*ladder).query},
	{"executor", (*ladder).executor},
	{"server", (*ladder).server},
	{"router", (*ladder).router},
	{"chunked", (*ladder).chunked},
	{"stream-mux", (*ladder).streamMux},
	{"hub", (*ladder).hub},
}

// climb runs ladder passes until the budget is used up, at least one.
// The first pass runs every rung; later ones repeat only the rungs on
// the workload's own path, so those get the samples.
func (l *ladder) climb(budget time.Duration) error {
	t0 := time.Now()
	for pass := 0; pass == 0 || time.Since(t0) < budget; pass++ {
		sp := l.tr.start(0, "ladder-pass")
		for _, r := range rungs {
			if pass > 0 && !slices.Contains(nativeRungs[l.e.spec.loop], r.name) {
				continue
			}
			// The allocator's counters are read outside the timed part:
			// reading them stops the world.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rs := l.tr.start(sp, "rung:"+r.name)
			start := time.Now()
			if err := r.run(l, rs); err != nil {
				return fmt.Errorf("rung %s: %w", r.name, err)
			}
			l.wall[r.name] = append(l.wall[r.name], time.Since(start).Seconds())
			l.tr.finish(rs, nil)
			runtime.ReadMemStats(&after)
			l.counts[r.name+".mallocs"] = int64(after.Mallocs - before.Mallocs)
			l.counts[r.name+".alloc_bytes"] = int64(after.TotalAlloc - before.TotalAlloc)
		}
		l.tr.finish(sp, map[string]int64{"pass": int64(pass)})
	}
	return nil
}

// scan tokenizes one document into h under opt, as one span.
func (l *ladder) scan(parent int, name string, doc int, h sax.BatchHandler, prune *sax.PruneNode) error {
	opt := scanOpt
	opt.Prune = prune
	sp := l.tr.start(parent, name)
	err := sax.ScanBatchedContext(l.ctx, l.reader(doc), h, opt)
	l.tr.finish(sp, map[string]int64{"bytes": int64(len(l.e.docs[doc].data))})
	return err
}

// tokenize: the scanner alone over each distinct document, nothing
// pruned, nothing consumed.
func (l *ladder) tokenize(parent int) error {
	var h countHandler
	for _, d := range l.docs {
		if err := l.scan(parent, "sax.tokenize", d, &h, nil); err != nil {
			return err
		}
	}
	l.counts["tokenize.tokens"] = h.tokens
	return nil
}

// prune: the same scan under each unit's prune trie.
func (l *ladder) prune(parent int) error {
	var h countHandler
	for _, u := range l.units {
		if err := l.scan(parent, "sax.pruned", u.doc, &h, u.mach.Prune()); err != nil {
			return err
		}
	}
	l.counts["prune.tokens"] = h.tokens
	return nil
}

// route: the pruned scan plus the merged automaton's routing decision
// for every token.
func (l *ladder) route(parent int) error {
	var tokens, deliveries int64
	for _, u := range l.units {
		h := routeHandler{m: u.mach.NewMatcher()}
		if err := l.scan(parent, "autom.route", u.doc, &h, u.mach.Prune()); err != nil {
			return err
		}
		h.m.Flush()
		tokens += h.tokens
		deliveries += h.deliveries
	}
	l.counts["route.tokens"] = tokens
	l.counts["route.deliveries"] = deliveries
	return nil
}

// pruneSolo: each sampled request's document scanned under that
// query's own prune trie — the scan a solo run pays.
func (l *ladder) pruneSolo(parent int) error {
	var h countHandler
	for _, r := range l.sample {
		if err := l.scan(parent, "sax.pruned-solo", r.doc, &h, l.plan(r.query).Prune()); err != nil {
			return err
		}
	}
	return nil
}

// soloRuns: each sampled request evaluated alone by the engine, result
// discarded.
func (l *ladder) soloRuns(parent int) error {
	var tokens int64
	for _, r := range l.sample {
		sp := l.tr.start(parent, "engine.solo")
		start := time.Now()
		st, err := engine.RunSelectiveContext(l.ctx, l.plan(r.query), l.reader(r.doc), io.Discard, scanOpt)
		key := [2]int{r.doc, r.query}
		l.solo[key] = append(l.solo[key], time.Since(start).Seconds())
		l.tr.finish(sp, map[string]int64{"doc": int64(r.doc), "query": int64(r.query), "tokens": st.Tokens, "peak": st.PeakBufferBytes})
		if err != nil {
			return err
		}
		l.peaks[key] = st.PeakBufferBytes
		tokens += st.Tokens
	}
	l.counts["solo.tokens"] = tokens
	return nil
}

// shared: each unit as one selective shared scan, results discarded.
func (l *ladder) shared(parent int) error {
	var delivered, skipped int64
	for _, u := range l.units {
		m := mux.NewSelective()
		for _, qi := range u.queries {
			m.Add(l.plan(qi), io.Discard)
		}
		m.SetMachine(u.mach)
		sp := l.tr.start(parent, "mux.run")
		res, err := m.Run(l.ctx, l.reader(u.doc), scanOpt)
		l.tr.finish(sp, map[string]int64{"doc": int64(u.doc), "queries": int64(len(u.queries)), "events": m.Events()})
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
			delivered += r.Stats.Tokens
			skipped += r.SkippedEvents
		}
	}
	l.counts["shared.delivered"] = delivered
	l.counts["shared.skipped"] = skipped
	return nil
}

// check counts one ladder operation whose result was compared.
func (l *ladder) check(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		l.firstErr = cmp.Or(l.firstErr, err)
	}
}

// query: each sampled request through the public API, one after the
// other — Catalog.Prepare (a cache hit), then Query.RunContext into a
// digest.
func (l *ladder) query(parent int) error {
	for _, r := range l.sample {
		sp := l.tr.start(parent, "flux.query")
		start := time.Now()
		q, err := l.cat.Prepare(l.e.docs[r.doc].name, l.e.queries[r.query].text)
		l.series["catalog.prepare_hit_us"] = append(l.series["catalog.prepare_hit_us"], float64(time.Since(start))/1e3)
		if err != nil {
			return err
		}
		var w digestWriter
		_, err = q.RunContext(l.ctx, l.reader(r.doc), &w, flux.Options{})
		l.tr.finish(sp, map[string]int64{"doc": int64(r.doc), "query": int64(r.query), "bytes": w.n})
		if err == nil && w.digest != l.e.refs[r.doc][r.query].dig {
			err = errWrongResult
		}
		l.check(err)
	}
	return nil
}

// replay sends the sample through one serving surface and keeps the
// latencies. The discipline is the workload's own, except that a closed
// loop gets at most one caller per processor — the connections the HTTP
// rungs have — so that the three serving rungs differ by the surface
// alone and their differences are the hops.
func (l *ladder) replay(parent int, name string, issue issueFn) []opResult {
	d := discipline{callers: min(l.e.callers(), runtime.GOMAXPROCS(0)), limit: len(l.sample)}
	if l.e.spec.loop == loopOpen {
		d = discipline{open: true, limit: len(l.sample)}
	}
	ops := l.e.drive(l.ctx, func(i int) request { return l.sample[i] }, d, issue, l.tr, parent)
	for _, op := range ops {
		l.check(op.err)
		if op.err == nil {
			l.lats[name] = append(l.lats[name], float64(op.end-op.from)/1e6)
		}
	}
	return ops
}

// executor: the sample through an Executor in this process.
func (l *ladder) executor(parent int) error {
	l.execOps = append(l.execOps, l.replay(parent, "executor", l.e.viaExecutor(l.ex))...)
	return nil
}

// server: the sample over HTTP to each document's own worker.
func (l *ladder) server(parent int) error {
	l.replay(parent, "server", l.e.viaHTTP(l.tier, func(doc int) string { return l.tier.owner[doc] }))
	return nil
}

// router: the sample over HTTP through the router.
func (l *ladder) router(parent int) error {
	l.replay(parent, "router", l.e.viaHTTP(l.tier, func(int) string { return l.tier.base }))
	return nil
}

// chunked: the push scanner alone over each distinct document, fed in
// chunks, nothing consumed.
func (l *ladder) chunked(parent int) error {
	var h countHandler
	for _, d := range l.docs {
		sp := l.tr.start(parent, "sax.chunked")
		err := push(sax.StartChunked(l.ctx, &h, scanOpt), l.e.docs[d].data)
		l.tr.finish(sp, map[string]int64{"bytes": int64(len(l.e.docs[d].data))})
		if err != nil {
			return err
		}
	}
	l.counts["chunked.tokens"] = h.tokens
	return nil
}

// streamMux: the push scanner feeding a streaming mux that holds the
// unit's queries as subscriptions, results discarded — the hub's core
// without its rings, drain goroutines and admission.
func (l *ladder) streamMux(parent int) error {
	for _, u := range l.units {
		m := mux.NewStreaming()
		for _, qi := range u.queries {
			if err := m.AttachStream(l.ctx, l.plan(qi), io.Discard, nil); err != nil {
				return err
			}
		}
		sp := l.tr.start(parent, "mux.stream")
		if err := m.BeginStream(); err != nil {
			return err
		}
		err := push(sax.StartChunked(l.ctx, m, scanOpt), l.e.docs[u.doc].data)
		res := m.EndStream(err)
		l.tr.finish(sp, map[string]int64{"doc": int64(u.doc), "queries": int64(len(u.queries)), "events": m.Events()})
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
		}
	}
	return nil
}

// hub: each unit replayed through a stream.Hub, results checked.
func (l *ladder) hub(parent int) error {
	for _, u := range l.units {
		p := l.e.streamPass(l.ctx, l.e.cat, u.doc, u.queries, l.tr, parent)
		if p.done == nil {
			return p.err
		}
		l.attempted += int64(len(u.queries))
		l.failed += p.failed
		l.firstErr = cmp.Or(l.firstErr, p.err)
		l.counts["hub.dropped_bytes"] += p.dropped
		for i := range p.done {
			l.series["stream.first_result_ms"] = append(l.series["stream.first_result_ms"], float64(p.first[i])/1e6)
			l.series["stream.result_lag_ms"] = append(l.series["stream.result_lag_ms"], float64(p.lag[i])/1e6)
		}
	}
	return nil
}
