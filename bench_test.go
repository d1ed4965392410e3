package flux

// Benchmarks regenerating the paper's evaluation (Figure 4) at
// test-friendly scale, plus ablation and substrate micro-benchmarks.
// Each BenchmarkFig4/<query>/<engine> benchmark is one cell of the
// Figure 4 table; cmd/fluxbench runs the full sweep over file-backed
// documents at arbitrary sizes (up to the paper's 5–100 MB).

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"flux/internal/core"
	"flux/internal/dtd"
	"flux/internal/mux"
	"flux/internal/sax"
	"flux/internal/xmark"
	"flux/internal/xq"
)

var benchDoc = struct {
	once sync.Once
	data string
}{}

// benchDocument returns a ~512 KB XMark document, generated once.
func benchDocument(b *testing.B) string {
	benchDoc.once.Do(func() {
		var sb strings.Builder
		if _, err := xmark.Generate(&sb, xmark.GenOptions{
			Scale: xmark.ScaleForBytes(512 << 10), Seed: 1,
		}); err != nil {
			panic(err)
		}
		benchDoc.data = sb.String()
	})
	return benchDoc.data
}

// BenchmarkFig4 is the Figure 4 table: five queries × three engines.
func BenchmarkFig4(b *testing.B) {
	doc := benchDocument(b)
	engines := []struct {
		name string
		opt  Options
	}{
		{"flux", Options{Engine: FluX}},
		{"naive", Options{Engine: Naive}},
		{"projection", Options{Engine: Projection}},
	}
	for _, qname := range xmark.QueryNames {
		q, err := Prepare(xmark.Queries[qname], xmark.DTD)
		if err != nil {
			b.Fatalf("%s: %v", qname, err)
		}
		for _, eng := range engines {
			b.Run(strings.ToUpper(qname)+"/"+eng.name, func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				var peak int64
				for i := 0; i < b.N; i++ {
					st, err := q.Run(strings.NewReader(doc), io.Discard, eng.opt)
					if err != nil {
						b.Fatal(err)
					}
					peak = st.PeakBufferBytes
				}
				b.ReportMetric(float64(peak), "buffered-bytes")
			})
		}
	}
}

// BenchmarkJoinScale is the value-join scale curve: the two joins (q8,
// q11) and a streamable reference (q13) on the FluX engine at three
// document sizes. Linear scaling shows as a flat MB/s column. q11's
// output grows faster than its input, so ns/io-byte divides its time by
// input plus output bytes.
func BenchmarkJoinScale(b *testing.B) {
	for _, mb := range []float64{0.5, 2, 8} {
		var sb strings.Builder
		if _, err := xmark.Generate(&sb, xmark.GenOptions{
			Scale: xmark.ScaleForBytes(int64(mb * (1 << 20))), Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
		doc := sb.String()
		for _, qname := range []string{"q8", "q11", "q13"} {
			q, err := Prepare(xmark.Queries[qname], xmark.DTD)
			if err != nil {
				b.Fatalf("%s: %v", qname, err)
			}
			b.Run(fmt.Sprintf("%s/%gMB", qname, mb), func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				var out int64
				for i := 0; i < b.N; i++ {
					st, err := q.Run(strings.NewReader(doc), io.Discard, Options{Engine: FluX})
					if err != nil {
						b.Fatal(err)
					}
					out = st.OutputBytes
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(int64(len(doc))+out), "ns/io-byte")
			})
		}
	}
}

// BenchmarkAblationScheduling isolates the value of schema-based
// scheduling: the same FluX runtime with the Figure 2 scheduler versus
// the universal Example 3.4 schedule (everything behind on-first
// past(*)).
func BenchmarkAblationScheduling(b *testing.B) {
	doc := benchDocument(b)
	for _, qname := range xmark.QueryNames {
		scheduled, err := Prepare(xmark.Queries[qname], xmark.DTD)
		if err != nil {
			b.Fatal(err)
		}
		unscheduled, err := PrepareUnscheduled(xmark.Queries[qname], xmark.DTD)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			name string
			q    *Query
		}{{"scheduled", scheduled}, {"unscheduled", unscheduled}} {
			b.Run(strings.ToUpper(qname)+"/"+v.name, func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				var peak int64
				for i := 0; i < b.N; i++ {
					st, err := v.q.Run(strings.NewReader(doc), io.Discard, Options{})
					if err != nil {
						b.Fatal(err)
					}
					peak = st.PeakBufferBytes
				}
				b.ReportMetric(float64(peak), "buffered-bytes")
			})
		}
	}
}

// BenchmarkAblationLoopMerge measures the Section 7 loop re-binding: Q8
// with and without cardinality-based merging (without it, the absolute
// inner path forces the paper-described fallback buffering at the
// document level).
func BenchmarkAblationLoopMerge(b *testing.B) {
	doc := benchDocument(b)
	schema := dtd.MustParse(xmark.DTD)
	parsed := xq.MustParse(xmark.Queries["q8"])

	for _, v := range []struct {
		name  string
		merge bool
	}{{"merged", true}, {"unmerged", false}} {
		norm := xq.Normalize(parsed)
		if v.merge {
			norm = xq.MergeLoops(norm, schema)
		}
		f, err := core.Rewrite(schema, norm)
		if err != nil {
			b.Fatal(err)
		}
		q, err := prepareFromFlux(schema, parsed, norm, f)
		b.Run(v.name, func(b *testing.B) {
			if err != nil {
				// Without re-binding, Q8's absolute inner path is not
				// executable on a stream (the site subtree is still open);
				// the engine rejects it rather than computing a wrong
				// answer. That rejection IS the ablation result.
				b.Skipf("rejected as expected: %v", err)
			}
			b.SetBytes(int64(len(doc)))
			var peak int64
			for i := 0; i < b.N; i++ {
				st, err := q.Run(strings.NewReader(doc), io.Discard, Options{})
				if err != nil {
					b.Fatal(err)
				}
				peak = st.PeakBufferBytes
			}
			b.ReportMetric(float64(peak), "buffered-bytes")
		})
	}
}

// BenchmarkSharedScan is the multi-query serving benchmark: all five
// Figure 4 queries against one document, as one shared-scan batch
// (RunAll — one pass, each event routed to the queries that can match
// it) versus N independent Run calls (N passes). Wall-clock per
// iteration covers the whole batch in both cases, the pass the shared
// scan amortizes. tokens-delivered sums the events delivered to the
// queries; RunAll routes each query as its own Run does, so on these
// queries it reads the same in both (TestRunAllMatchesRun).
func BenchmarkSharedScan(b *testing.B) {
	doc := benchDocument(b)
	queries := make([]*Query, 0, len(xmark.QueryNames))
	for _, name := range xmark.QueryNames {
		q, err := Prepare(xmark.Queries[name], xmark.DTD)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		queries = append(queries, q)
	}
	ws := make([]io.Writer, len(queries))
	for i := range ws {
		ws[i] = io.Discard
	}

	b.Run("shared", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		var delivered int64
		for i := 0; i < b.N; i++ {
			results, err := RunAll(queries, strings.NewReader(doc), Options{}, ws...)
			if err != nil {
				b.Fatal(err)
			}
			delivered = 0
			for _, r := range results {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				delivered += r.Stats.Tokens
			}
		}
		b.ReportMetric(float64(delivered), "tokens-delivered")
	})
	b.Run("separate", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		var delivered int64
		for i := 0; i < b.N; i++ {
			delivered = 0
			for _, q := range queries {
				st, err := q.Run(strings.NewReader(doc), io.Discard, Options{})
				if err != nil {
					b.Fatal(err)
				}
				delivered += st.Tokens
			}
		}
		b.ReportMetric(float64(delivered), "tokens-delivered")
	})
}

// BenchmarkScanner measures raw SAX tokenization throughput, the
// substrate cost below every engine.
func BenchmarkScanner(b *testing.B) {
	doc := benchDocument(b)
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		if err := sax.ScanString(doc, sax.HandlerFuncs{}, sax.Options{SkipWhitespaceText: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidator measures validating Glushkov runs over the stream
// (scanner + one DFA transition per token), the fixed cost of
// punctuation-event generation.
func BenchmarkValidator(b *testing.B) {
	doc := benchDocument(b)
	schema := dtd.MustParse(xmark.DTD)
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		if err := dtd.Validate(schema, strings.NewReader(doc), sax.Options{SkipWhitespaceText: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures the full compilation pipeline (parse,
// normalize, merge, schedule, safety-check, plan); the paper reports
// rewriting times as negligible.
func BenchmarkCompile(b *testing.B) {
	for _, qname := range xmark.QueryNames {
		b.Run(strings.ToUpper(qname), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Prepare(xmark.Queries[qname], xmark.DTD); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelectiveFanout measures event routing for a wide batch of
// narrow, disjoint-path queries through one shared scan's
// merged-automaton dispatch (automaton, the serving path).
// events-per-query is the average number of SAX events delivered to
// each query — the quantity routing shrinks.
func BenchmarkSelectiveFanout(b *testing.B) {
	doc := benchDocument(b)
	queries := make([]*Query, len(xmark.FanoutQueries))
	for i, qt := range xmark.FanoutQueries {
		q, err := Prepare(qt, xmark.DTD)
		if err != nil {
			b.Fatalf("query %d: %v", i, err)
		}
		queries[i] = q
	}
	benchFanout(b, doc, queries)
}

// BenchmarkSharedPrefixFanout is BenchmarkSelectiveFanout over the
// 64-query shared-prefix batch (every query iterating
// /site/people/person): the shape where one automaton traversal serves
// many routing groups at once.
func BenchmarkSharedPrefixFanout(b *testing.B) {
	doc := benchDocument(b)
	texts := xmark.SharedPrefixQueries(64)
	queries := make([]*Query, len(texts))
	for i, qt := range texts {
		q, err := Prepare(qt, xmark.DTD)
		if err != nil {
			b.Fatalf("query %d: %v", i, err)
		}
		queries[i] = q
	}
	benchFanout(b, doc, queries)
}

func benchFanout(b *testing.B, doc string, queries []*Query) {
	b.Run("automaton", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		var delivered int64
		for i := 0; i < b.N; i++ {
			m := mux.NewSelective()
			for _, q := range queries {
				m.Add(q.plan, io.Discard)
			}
			results, err := m.Run(nil, strings.NewReader(doc), sax.Options{SkipWhitespaceText: true})
			if err != nil {
				b.Fatal(err)
			}
			delivered = 0
			for _, r := range results {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				delivered += r.Stats.Tokens
			}
		}
		b.ReportMetric(float64(delivered)/float64(len(queries)), "events-per-query")
	})
}
