// Package flux is a schema-based streaming XQuery engine, a faithful
// reproduction of the FluX system from Koch, Scherzinger, Schweikardt and
// Stegmaier, "Schema-based Scheduling of Event Processors and Buffer
// Minimization for Queries on Structured Data Streams" (VLDB 2004).
//
// Given a query in the paper's XQuery⁻ fragment and a DTD, Prepare
// normalizes the query (Figure 1), applies cardinality-based loop merging
// (Section 7), schedules it into a safe event-based FluX query (Figure 2,
// Definition 3.6), and compiles it for the streaming engine (Section 5),
// which evaluates it over XML streams with provably minimal buffering
// driven by the DTD's order constraints.
//
// Two in-memory baseline engines — naive full materialization (the
// paper's Galax reference point) and static projection (Marian–Siméon) —
// evaluate the same queries for comparison; all three produce identical
// output.
//
//	q, err := flux.Prepare(queryText, dtdText)
//	stats, err := q.Run(xmlStream, os.Stdout, flux.Options{})
package flux

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"flux/internal/core"
	"flux/internal/dom"
	"flux/internal/dtd"
	"flux/internal/engine"
	"flux/internal/mux"
	"flux/internal/sax"
	"flux/internal/xq"
)

// Engine selects an evaluation strategy.
type Engine int

const (
	// FluX is the paper's streaming engine: event handlers scheduled by
	// schema order constraints, buffering only what the DTD cannot prove
	// streamable.
	FluX Engine = iota
	// Naive materializes the entire document before evaluating (the
	// Galax-style baseline).
	Naive
	// Projection materializes only statically projected paths before
	// evaluating (the Marian–Siméon / AnonX-style baseline).
	Projection
)

// String names the engine as used in benchmark tables.
func (e Engine) String() string {
	switch e {
	case FluX:
		return "flux"
	case Naive:
		return "naive"
	default:
		return "projection"
	}
}

// Options configures query execution.
type Options struct {
	// Engine picks the evaluation strategy; the zero value is FluX.
	Engine Engine
	// AttrsToSubelements converts attributes on the input stream into
	// subelements named parent_attr (the paper's XSAX conversion).
	AttrsToSubelements bool
}

// Stats reports the resources one execution used.
type Stats struct {
	// PeakBufferBytes is the maximum number of bytes of query data held
	// in main memory at once (the memory column of the paper's Figure 4).
	PeakBufferBytes int64
	// OutputBytes is the size of the query result.
	OutputBytes int64
	// Tokens is the number of SAX events processed (FluX engine only).
	Tokens int64
}

// Query is a prepared query: parsed, normalized, scheduled into safe FluX,
// and compiled for the streaming engine.
type Query struct {
	schema *dtd.Schema
	source xq.Expr
	norm   xq.Expr
	flux   core.Flux
	plan   *engine.Plan
}

// Prepare compiles queryText (XQuery⁻) against dtdText. It returns an
// error if the query is outside the fragment or the DTD is malformed or
// ambiguous, or if the engine refuses its schedule (a scheduler bug).
func Prepare(queryText, dtdText string) (*Query, error) {
	schema, err := dtd.Parse(dtdText)
	if err != nil {
		return nil, err
	}
	return PrepareWithSchema(queryText, schema)
}

// PrepareWithSchema is Prepare for an already parsed schema.
//
// The Figure 2 schedule is compiled once by engine.Compile, which admits
// it only if it satisfies core.CheckSafety, the one rule for when a
// handler's data is complete, and the engine has a runtime for its
// shape. Figure 2 meets both: its schedules are safe (Theorem 4.3), and
// loop merging with the held-open rule of its line 30 leaves at most one
// on handler per element in a scope. A refused schedule is therefore a
// scheduler bug, and PrepareWithSchema returns the compile error.
func PrepareWithSchema(queryText string, schema *dtd.Schema) (*Query, error) {
	src, err := xq.Parse(queryText)
	if err != nil {
		return nil, err
	}
	norm := xq.MergeLoops(xq.Normalize(src), schema)
	f, err := core.Rewrite(schema, norm)
	if err != nil {
		return nil, err
	}
	return prepareFromFlux(schema, src, norm, f)
}

// unscheduled is the Example 3.4 schedule of a normalized query: every
// path it reads is buffered until the end of the stream.
func unscheduled(norm xq.Expr) core.Flux {
	return &core.PS{Var: xq.RootVar, Handlers: []core.Handler{
		&core.OnFirst{Star: true, Body: norm},
	}}
}

// PrepareFlux compiles a hand-written FluX query given in the paper's
// surface syntax, e.g.
//
//	{ ps $ROOT: on bib as $b return { $b }; on-first past(bib) return done }
//
// engine.Compile admits the query only if it satisfies core.CheckSafety
// w.r.t. the DTD and has a runtime for its shape; hand-written queries,
// unlike scheduler output, may fail either test, and are then refused.
func PrepareFlux(fluxText, dtdText string) (*Query, error) {
	schema, err := dtd.Parse(dtdText)
	if err != nil {
		return nil, err
	}
	f, err := core.ParseFlux(fluxText)
	if err != nil {
		return nil, err
	}
	// The DOM baselines need an XQuery⁻ view; hand-written FluX has none,
	// so baseline runs are refused for such queries.
	return prepareFromFlux(schema, nil, nil, f)
}

// PrepareUnscheduled compiles queryText without schema-based scheduling:
// the normalized query is wrapped in the universal Example 3.4 schedule
// { ps $ROOT: on-first past(*) return α }, so the engine buffers every
// projected path until the end of the stream. This is the ablation
// baseline that isolates the benefit of the Figure 2 scheduler.
func PrepareUnscheduled(queryText, dtdText string) (*Query, error) {
	schema, err := dtd.Parse(dtdText)
	if err != nil {
		return nil, err
	}
	src, err := xq.Parse(queryText)
	if err != nil {
		return nil, err
	}
	norm := xq.MergeLoops(xq.Normalize(src), schema)
	return prepareFromFlux(schema, src, norm, unscheduled(norm))
}

// prepareFromFlux compiles a scheduled FluX query whose XQuery⁻ source
// and normal form are src and norm, or nil for hand-written FluX.
func prepareFromFlux(schema *dtd.Schema, src, norm xq.Expr, f core.Flux) (*Query, error) {
	plan, err := engine.Compile(schema, f)
	if err != nil {
		return nil, err
	}
	return &Query{schema: schema, source: src, norm: norm, flux: f, plan: plan}, nil
}

// Run evaluates the query over the XML document read from r, writing the
// result to w.
func (q *Query) Run(r io.Reader, w io.Writer, opt Options) (Stats, error) {
	return q.RunContext(context.Background(), r, w, opt)
}

// RunContext is Run with cancellation: once ctx is done, the streaming
// engine stops at the next event batch — a dead client or an expired
// deadline ends the scan mid-stream instead of burning through the rest
// of the document — and the error is ctx.Err(). The returned Stats cover
// the stream prefix processed before the cancellation. The in-memory
// baseline engines observe ctx at read-buffer granularity.
func (q *Query) RunContext(ctx context.Context, r io.Reader, w io.Writer, opt Options) (Stats, error) {
	saxOpt := sax.Options{
		SkipWhitespaceText: true,
		AttrsToSubelements: opt.AttrsToSubelements,
	}
	switch opt.Engine {
	case Naive:
		if q.source == nil {
			return Stats{}, errors.New("flux: baseline engines need an XQuery⁻ source; this query was prepared from FluX syntax")
		}
		st, err := dom.RunNaive(ctx, q.source, r, w, saxOpt)
		return Stats{PeakBufferBytes: st.BufferBytes, OutputBytes: st.OutputBytes}, err
	case Projection:
		if q.source == nil {
			return Stats{}, errors.New("flux: baseline engines need an XQuery⁻ source; this query was prepared from FluX syntax")
		}
		st, err := dom.RunProjection(ctx, q.source, r, w, saxOpt)
		return Stats{PeakBufferBytes: st.BufferBytes, OutputBytes: st.OutputBytes}, err
	default:
		// The streaming engine runs signature-routed: subtrees the query's
		// projected-path signature provably cannot match are skipped in
		// O(1) instead of streamed through the engine — the scanner
		// consumes their bytes raw, without tokenizing them. The interior
		// of a skipped subtree is not validated against the DTD;
		// ValidateDocument covers full-document validation.
		st, err := engine.RunSelectiveContext(ctx, q.plan, r, w, saxOpt)
		return Stats{PeakBufferBytes: st.PeakBufferBytes, OutputBytes: st.OutputBytes, Tokens: st.Tokens}, err
	}
}

// Result is the outcome of one query in a shared-scan batch.
type Result struct {
	// Stats are the query's execution statistics; for a failed query they
	// cover the stream prefix processed before the failure.
	Stats Stats
	// Err is the query's own failure, nil on success.
	Err error
}

// RunAll evaluates all queries in a single pass of the XML document read
// from r, writing each query's result to the corresponding writer (one
// writer per query). The scan — read, tokenization, entity decoding — is
// paid once, so N queries against one document cost one traversal
// instead of N.
//
// Each query is routed as its own Run routes it: events are routed by
// the query's projected-path signature, so a query is not delivered —
// and does not validate against its DTD — the interior of subtrees it
// provably ignores, and its output and buffer statistics equal its solo
// Run's. ValidateDocument covers full-document validation.
//
// Failures are isolated per query: a query whose plan errors mid-stream
// is detached and its Result records the error, while its siblings keep
// running. The returned error is reserved for stream-level failures
// (malformed XML, read errors) that end every query; per-query Results
// are still returned alongside it. All queries run on the FluX streaming
// engine — the in-memory baselines cannot share a scan.
func RunAll(queries []*Query, r io.Reader, opt Options, ws ...io.Writer) ([]Result, error) {
	return RunAllContext(context.Background(), queries, r, opt, ws...)
}

// RunAllContext is RunAll with cancellation: once ctx is done the shared
// scan stops at the next event batch and every still-live query's Result
// records ctx.Err() alongside the stats for the prefix it processed.
// Per-query cancellation — detaching one caller's query while its batch
// siblings keep streaming — is provided by Executor.
func RunAllContext(ctx context.Context, queries []*Query, r io.Reader, opt Options, ws ...io.Writer) ([]Result, error) {
	if opt.Engine != FluX {
		return nil, errors.New("flux: RunAll shares one stream pass and requires the FluX engine")
	}
	if len(ws) != len(queries) {
		return nil, fmt.Errorf("flux: RunAll needs one writer per query: %d queries, %d writers", len(queries), len(ws))
	}
	m := mux.NewSelective()
	for i, q := range queries {
		m.Add(q.plan, ws[i])
	}
	rs, err := m.Run(ctx, r, sax.Options{
		SkipWhitespaceText: true,
		AttrsToSubelements: opt.AttrsToSubelements,
	})
	out := make([]Result, len(rs))
	for i, res := range rs {
		out[i] = Result{
			Stats: Stats{
				PeakBufferBytes: res.Stats.PeakBufferBytes,
				OutputBytes:     res.Stats.OutputBytes,
				Tokens:          res.Stats.Tokens,
			},
			Err: res.Err,
		}
	}
	return out, err
}

// RunString evaluates the query over an in-memory document and returns
// the result text.
func (q *Query) RunString(doc string, opt Options) (string, Stats, error) {
	var sb strings.Builder
	st, err := q.Run(strings.NewReader(doc), &sb, opt)
	return sb.String(), st, err
}

// SourceText returns the parsed query in canonical XQuery⁻ syntax, or ""
// for queries prepared directly from FluX syntax.
func (q *Query) SourceText() string {
	if q.source == nil {
		return ""
	}
	return xq.Print(q.source)
}

// NormalizedText returns the query's normal form (Figure 1) after loop
// merging, or "" for queries prepared directly from FluX syntax.
func (q *Query) NormalizedText() string {
	if q.norm == nil {
		return ""
	}
	return xq.Print(q.norm)
}

// FluxText returns the scheduled FluX query in the paper's syntax.
func (q *Query) FluxText() string { return core.Print(q.flux) }

// FluxIndented returns the scheduled FluX query formatted with one
// handler per line.
func (q *Query) FluxIndented() string { return core.Indent(q.flux) }

// PlanText describes the compiled plan: scopes, buffer trees (with the
// paper's • marks), and condition watchers.
func (q *Query) PlanText() string { return q.plan.Describe() }

// BufferReport returns the static buffering analysis: whether the query
// is fully streaming, and otherwise which paths buffer in which scope and
// for how long. It predicts the Figure 4 memory column without reading
// any data.
func (q *Query) BufferReport() engine.BufferReport { return q.plan.Report() }

// Plan returns the compiled engine plan, for callers that drive their
// own event delivery — the shared-scan multiplexer, the streaming hub.
// The plan is stateless after compilation and shared by every execution
// of the query; treat it as read-only.
func (q *Query) Plan() *engine.Plan { return q.plan }

// Explain combines the compilation stages into one report.
func (q *Query) Explain() string {
	var b strings.Builder
	b.WriteString("-- normalized XQuery- (Figure 1 + Section 7 merging):\n")
	b.WriteString(q.NormalizedText())
	b.WriteString("\n\n-- scheduled FluX query (Figure 2):\n")
	b.WriteString(q.FluxIndented())
	b.WriteString("\n-- execution plan (Section 5 buffer trees, • = full subtree):\n")
	b.WriteString(q.PlanText())
	return b.String()
}

// ValidateDocument checks a document against the query's DTD without
// evaluating anything.
func (q *Query) ValidateDocument(r io.Reader, opt Options) error {
	return dtd.Validate(q.schema, r, sax.Options{
		SkipWhitespaceText: true,
		AttrsToSubelements: opt.AttrsToSubelements,
	})
}
