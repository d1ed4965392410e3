package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"flux"
	"flux/internal/xmark"
)

// loopKind says how a workload offers its load.
type loopKind int

const (
	loopScan   loopKind = iota // closed, one caller: each query alone over the document, pass after pass
	loopOpen                   // open: arrivals on a schedule fixed by the seed, each request a goroutine
	loopClosed                 // closed: callers in this process, each issuing its next request when the last returns
	loopHTTP                   // closed: keep-alive clients against the router of an embedded shard tier
	loopStream                 // closed: one producer pushing the document into a hub, blocked by the scan
)

// mixEntry is one query of a workload's mix with its weight.
type mixEntry struct {
	name, text string
	weight     int
}

// workloadSpec is one named workload. The names are fixed: later
// changes state which of them they expect to move.
type workloadSpec struct {
	name, why string
	loop      loopKind
	docs      int
	docMB     float64 // nominal size of each document
	quickMB   float64 // the same under -quick
	sibling   bool    // also generate a 1/16-scale sibling (oracle for large documents, buffer-flat)
	mix       []mixEntry
	callers   int     // closed loops; 0 means one per processor
	rate      float64 // open loop: arrivals per second
	zipf      float64 // open loop: Zipf exponent of the document choice
	// check is the workload's set-up invariant, nil for none.
	check func(context.Context, *env) error
}

func paper(weight int, names ...string) []mixEntry {
	out := make([]mixEntry, len(names))
	for i, n := range names {
		out[i] = mixEntry{name: n, text: xmark.Queries[n], weight: weight}
	}
	return out
}

func numbered(prefix string, texts []string) []mixEntry {
	out := make([]mixEntry, len(texts))
	for i, t := range texts {
		out[i] = mixEntry{name: fmt.Sprintf("%s%02d", prefix, i), text: t, weight: 1}
	}
	return out
}

func concat(parts ...[]mixEntry) []mixEntry {
	var out []mixEntry
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// scanRungs are the ladder rungs every workload's requests cross;
// nativeRungs adds the further ones on each kind of loop's own path.
// Those repeat on every ladder pass, the others run once.
var scanRungs = []string{"tokenize", "prune", "route", "prune-solo", "solo", "shared", "query"}

var nativeRungs = map[loopKind][]string{
	loopScan:   scanRungs,
	loopOpen:   append(slices.Clone(scanRungs), "executor"),
	loopClosed: append(slices.Clone(scanRungs), "executor"),
	loopHTTP:   append(slices.Clone(scanRungs), "executor", "server", "router"),
	loopStream: append(slices.Clone(scanRungs), "chunked", "stream-mux", "hub"),
}

// workloads are the six workloads, in the order they run.
var workloads = []*workloadSpec{
	{
		name: "scan-stream", loop: loopScan, docs: 1, docMB: 32, quickMB: 1, sibling: true, callers: 1,
		why:   "q1, q13, q20 alone over one 32MB document: tokenizer and prune trie do the work, buffers stay flat",
		mix:   paper(1, "q1", "q13", "q20"),
		check: checkBufferFlat,
	},
	{
		name: "scan-join", loop: loopScan, docs: 1, docMB: 2, quickMB: 0.25, callers: 1,
		why:   "q8, q11 alone over one 2MB document: buffer trees and value joins in the engine do the work",
		mix:   paper(1, "q8", "q11"),
		check: checkProjectionBound,
	},
	{
		name: "serve-open", loop: loopOpen, docs: 4, docMB: 1, quickMB: 0.25, rate: 200, zipf: 1.2,
		why: "open loop, 200 q/s Poisson on a default Executor at a third of saturation: what a client waits for",
		// q8 counts twice, 2 of 33 arrivals: the slowest 5% of the requests
		// are then q8's own runs, whose time repeats. At 1 of 32, p95 fell
		// on the edge between the joins and the requests queued behind
		// one, and moved by half from seed to seed.
		mix: concat(paper(2, "q1", "q13", "q20", "q8"), paper(1, "q11"), numbered("prefix", xmark.SharedPrefixQueries(24))),
	},
	{
		name: "serve-closed", loop: loopClosed, docs: 4, docMB: 1, quickMB: 0.25, callers: 32,
		why: "32 in-process callers saturate the same Executor with full batches: mux dispatch and routing dominate",
		mix: concat(numbered("prefix", xmark.SharedPrefixQueries(64)), numbered("fanout", xmark.FanoutQueries), paper(1, "q1", "q13", "q20")),
	},
	{
		name: "tier-http", loop: loopHTTP, docs: 4, docMB: 1, quickMB: 0.25,
		why: "keep-alive clients through shard.Router and two embedded workers: the only workload with the shard tier on the path",
		mix: concat(paper(2, "q1", "q13", "q20"), numbered("prefix", xmark.SharedPrefixQueries(24))),
	},
	{
		name: "stream-replay", loop: loopStream, docs: 1, docMB: 8, quickMB: 1, sibling: true, callers: 1,
		why: "an 8MB document pushed in 32KB chunks into a hub with 8 standing subscriptions: chunked push scanning",
		mix: concat(paper(1, "q1", "q13", "q20"), numbered("prefix", xmark.SharedPrefixQueries(5))),
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// document is one generated input.
type document struct {
	name string
	data []byte
	path string // set once the document is on disk for a catalog
}

// query is one distinct query of the mix, compiled.
type query struct {
	name, text string
	q          *flux.Query
}

// request is one (document, query) pick; due is its place on an open
// loop's schedule.
type request struct {
	doc, query int
	due        time.Duration
}

// env is a workload set up for one seed: inputs, references, and the
// serving objects its loop drives.
type env struct {
	spec *workloadSpec
	cfg  *config
	dir  string

	docs     []document
	sibling  []byte
	genBytes int64
	genTime  time.Duration

	cat     *flux.Catalog
	queries []query
	refs    [][]ref // [document][query]
	sibRefs []ref   // [query], over the sibling

	// reqs is the open loop's schedule, or the cycle the closed loops'
	// callers walk.
	reqs []request

	ex   *flux.Executor
	tier *tier
}

func (e *env) callers() int {
	if e.spec.callers > 0 {
		return e.spec.callers
	}
	return runtime.GOMAXPROCS(0)
}

// docBytes sums the documents' sizes.
func (e *env) docBytes() int64 {
	var n int64
	for _, d := range e.docs {
		n += int64(len(d.data))
	}
	return n
}

func generate(mb float64, seed int64) ([]byte, error) {
	var b bytes.Buffer
	b.Grow(int(mb*(1<<20)) + 1<<20)
	_, err := xmark.Generate(&b, xmark.GenOptions{Scale: xmark.ScaleForBytes(int64(mb * (1 << 20))), Seed: seed})
	return b.Bytes(), err
}

// setup builds everything the measured loop needs and runs one warm-up
// pass; its duration is the setup_s metric.
func setup(ctx context.Context, spec *workloadSpec, cfg *config) (_ *env, err error) {
	e := &env{spec: spec, cfg: cfg, dir: filepath.Join(cfg.out, "docs", spec.name)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	mb := spec.docMB
	if cfg.quick {
		mb = spec.quickMB
	}
	start := time.Now()
	for i := 0; i < spec.docs; i++ {
		data, err := generate(mb, cfg.seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("generating document %d: %w", i, err)
		}
		e.docs = append(e.docs, document{name: fmt.Sprintf("d%d", i), data: data})
	}
	e.genTime, e.genBytes = time.Since(start), e.docBytes()
	if spec.sibling {
		if e.sibling, err = generate(mb/16, cfg.seed); err != nil {
			return nil, fmt.Errorf("generating sibling: %w", err)
		}
	}

	serving := spec.loop == loopOpen || spec.loop == loopClosed || spec.loop == loopHTTP
	e.cat = flux.NewCatalog(flux.CatalogOptions{})
	if serving {
		if err := e.writeDocs(); err != nil {
			return nil, err
		}
	}
	for _, d := range e.docs {
		if serving {
			err = e.cat.Add(d.name, d.path, xmark.DTD)
		} else {
			err = e.cat.AddStream(d.name, xmark.DTD)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, m := range spec.mix {
		q, err := e.cat.Prepare(e.docs[0].name, m.text)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", m.name, err)
		}
		e.queries = append(e.queries, query{name: m.name, text: m.text, q: q})
	}
	if err := e.buildRefs(ctx); err != nil {
		return nil, err
	}
	if spec.check != nil {
		if err := spec.check(ctx, e); err != nil {
			return nil, err
		}
	}

	switch spec.loop {
	case loopOpen, loopClosed:
		if e.ex, err = flux.NewExecutor(e.cat, flux.ExecutorOptions{}); err != nil {
			return nil, err
		}
	case loopHTTP:
		if e.tier, err = newTier(e.docs, e.dtdPath()); err != nil {
			return nil, err
		}
	}
	e.schedule()
	if err := e.warmup(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

func (e *env) dtdPath() string { return filepath.Join(e.dir, "xmark.dtd") }

// writeDocs puts the documents on disk, where a catalog reads them.
func (e *env) writeDocs() error {
	if e.docs[0].path != "" {
		return nil
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(e.dtdPath(), []byte(xmark.DTD), 0o644); err != nil {
		return err
	}
	for i := range e.docs {
		d := &e.docs[i]
		d.path = filepath.Join(e.dir, d.name+".xml")
		if err := os.WriteFile(d.path, d.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// schedule derives the request sequence from the seed. Every sequence
// holds each query in exact proportion to its weight — the order is
// random, the mix is not, so no seed offers more joins than another.
// The open loop gets exactly rate x window arrivals at sorted uniform
// times (a Poisson process conditioned on its count), the documents in
// exact Zipf proportion. The closed loops get one shuffled cycle over
// every (document, query) pair, so document choice is uniform and every
// pair is reached early in the window. The scan and stream loops take
// the pairs in order.
func (e *env) schedule() {
	rng := rand.New(rand.NewSource(e.cfg.seed))
	var picks []int
	for qi, m := range e.spec.mix {
		for w := 0; w < m.weight; w++ {
			picks = append(picks, qi)
		}
	}
	switch e.spec.loop {
	case loopOpen:
		n := int(e.spec.rate * e.cfg.window.Seconds())
		share := make([]float64, len(e.docs))
		for d := range share {
			share[d] = math.Pow(float64(d+1), -e.spec.zipf)
		}
		docs := proportional(share, n)
		rng.Shuffle(n, func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
		queries := make([]int, n)
		for i := range queries {
			queries[i] = picks[i%len(picks)]
		}
		rng.Shuffle(n, func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
		due := make([]float64, n)
		for i := range due {
			due[i] = rng.Float64()
		}
		sort.Float64s(due)
		e.reqs = make([]request, n)
		for i := range e.reqs {
			e.reqs[i] = request{doc: docs[i], query: queries[i], due: time.Duration(due[i] * float64(e.cfg.window))}
		}
	default:
		for d := range e.docs {
			for _, qi := range picks {
				e.reqs = append(e.reqs, request{doc: d, query: qi})
			}
		}
		if e.spec.loop != loopScan && e.spec.loop != loopStream {
			rng.Shuffle(len(e.reqs), func(i, j int) { e.reqs[i], e.reqs[j] = e.reqs[j], e.reqs[i] })
		}
	}
}

// proportional returns n indices into share, each index as often as its
// share of the total says, remainders going to the largest shares first.
func proportional(share []float64, n int) []int {
	var total float64
	for _, s := range share {
		total += s
	}
	out := make([]int, 0, n)
	for i, s := range share {
		for k := 0; k < int(s/total*float64(n)); k++ {
			out = append(out, i)
		}
	}
	for i := 0; len(out) < n; i = (i + 1) % len(share) {
		out = append(out, i)
	}
	return out
}

// warmup runs the measured loop once, briefly, so caches (compiled
// queries, merged automata, pooled scanners, connections) are filled
// before timing starts. A wrong result here fails set-up.
func (e *env) warmup(ctx context.Context) error {
	var m measurement
	switch e.spec.loop {
	case loopScan:
		m = e.scanLoop(ctx, 0, nil)
	case loopStream:
		m = e.streamLoop(ctx, 0, nil)
	default:
		// One closed-loop sweep over every pair, whatever the measured
		// discipline: it reaches each (document, query) cache entry.
		pairs := len(e.docs) * len(e.queries)
		ops := e.drive(ctx, e.cycle, discipline{callers: e.callers(), limit: pairs}, e.issue(), nil, 0)
		m = e.measureOps(ops, 0)
	}
	if m.failed > 0 {
		return fmt.Errorf("%d of %d operations failed: %w", m.failed, m.attempted, m.firstErr)
	}
	return nil
}

// close releases what set-up acquired.
func (e *env) close() {
	if e.tier != nil {
		e.tier.close()
		e.tier = nil
	}
	os.RemoveAll(e.dir)
}
