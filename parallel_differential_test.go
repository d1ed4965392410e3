package flux

// Differential testing of the one parallel path, the streaming mux's
// worker pool: the same random query batches and documents as the
// automaton differential, pushed through mux.NewStreaming fed by
// sax.StartChunked at two chunk sizes, against the batch scan
// mux.NewSelective().Run. At GOMAXPROCS ≥ 2 the streaming side must run
// on workers (asserted with ParallelActive); at GOMAXPROCS=1 the same
// comparisons pin the inline streaming path.
//
// Per query the two must agree on error presence, the buffer statistics
// (OutputBytes, PeakBufferBytes), and the output bytes — exactly for a
// query that succeeds; for a failed one only up to the unflushed tail,
// which the batch scan drops at the failure while the stream has
// already pushed it out at its batch boundaries, so one output must be
// a prefix of the other. The one place the two scans may part is
// malformed input inside a subtree every query skips:
// the batch scan prunes such a subtree raw and cannot see a mis-paired
// tag there, while the streaming scan tokenizes it (a stream cannot
// prune — a later subscriber may observe the subtree). When the two
// scans stop at different syntax errors, only the streaming side's
// failure is checked: it must be a syntax error, recorded on every
// streaming slot.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"flux/internal/dtd"
	"flux/internal/mux"
	"flux/internal/sax"
	"flux/internal/xmark"
)

// streamChunks are the push sizes of the streaming side: small chunks
// make many small batches, mostly routed inline on the producer; large
// ones fill batches past the inline threshold, so workers evaluate them.
var streamChunks = []int{61, 4 << 10}

// streamRun is one streaming execution of a query batch.
type streamRun struct {
	batchRun
	parallel bool // the mux ran its worker pool
}

// runQueryStream pushes doc in chunk-byte pieces through a streaming mux
// whose standing subscriptions are the batch's queries.
func runQueryStream(qs []*Query, doc string, chunk int) streamRun {
	m := mux.NewStreaming()
	sbs := make([]*strings.Builder, len(qs))
	for i, q := range qs {
		sbs[i] = &strings.Builder{}
		m.Add(q.plan, sbs[i])
	}
	if err := m.BeginStream(); err != nil {
		return streamRun{batchRun: batchRun{err: err}}
	}
	cs := sax.StartChunked(context.Background(), m, sax.Options{SkipWhitespaceText: true})
	for rest := doc; len(rest) > 0; {
		n := min(chunk, len(rest))
		if _, err := cs.Write([]byte(rest[:n])); err != nil {
			break // scan died; Close reports why
		}
		rest = rest[n:]
	}
	err := cs.Close()
	out := streamRun{batchRun: batchRun{results: m.EndStream(err), err: err, outs: make([]string, len(qs))}, parallel: m.ParallelActive()}
	for i, sb := range sbs {
		out.outs[i] = sb.String()
	}
	return out
}

// syntaxOffset returns where a scan's syntax error was detected, or -1
// when err is not one.
func syntaxOffset(err error) int64 {
	var syn *sax.SyntaxError
	if errors.As(err, &syn) {
		return syn.Offset
	}
	return -1
}

// checkStreamAgainst compares a streaming run with the batch run of the
// same queries over the same document.
func checkStreamAgainst(t *testing.T, label string, st streamRun, bt batchRun) {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= 2 && !st.parallel {
		t.Fatalf("%s: streaming mux routed inline at GOMAXPROCS=%d", label, runtime.GOMAXPROCS(0))
	}
	if len(st.results) != len(bt.results) {
		t.Fatalf("%s: %d streaming results, %d batch results (stream %v, batch %v)",
			label, len(st.results), len(bt.results), st.err, bt.err)
	}
	// Equal offsets mean the scans read the same tokens: both clean (or
	// the batch at its all-queries-failed abort), or both stopped at one
	// syntax error.
	bOff, sOff := syntaxOffset(bt.err), syntaxOffset(st.err)
	if bOff != sOff {
		if sOff < 0 {
			t.Fatalf("%s: batch scan failed with %v, streaming scan with %v; pruning can only hide malformed input, not add it",
				label, bt.err, st.err)
		}
		for i, r := range st.results {
			if r.Err == nil {
				t.Fatalf("%s: query %d: stream error %v missing from its slot", label, i, st.err)
			}
		}
		return
	}
	for i := range st.results {
		sr, br := st.results[i], bt.results[i]
		if (sr.Err != nil) != (br.Err != nil) {
			t.Fatalf("%s: query %d error disagreement: streaming %v, batch %v", label, i, sr.Err, br.Err)
		}
		so, bo := st.outs[i], bt.outs[i]
		if sr.Err != nil {
			n := min(len(so), len(bo))
			so, bo = so[:n], bo[:n]
		}
		if so != bo {
			t.Fatalf("%s: query %d output differs (failed: %v)\nstreaming: %q\nbatch:     %q",
				label, i, sr.Err, st.outs[i], bt.outs[i])
		}
		if sr.Stats.OutputBytes != br.Stats.OutputBytes || sr.Stats.PeakBufferBytes != br.Stats.PeakBufferBytes {
			t.Fatalf("%s: query %d buffer stats differ: streaming output %d peak %d, batch output %d peak %d",
				label, i, sr.Stats.OutputBytes, sr.Stats.PeakBufferBytes, br.Stats.OutputBytes, br.Stats.PeakBufferBytes)
		}
	}
}

// checkStreamChunks runs the batch once and the stream at every chunk
// size, comparing each.
func checkStreamChunks(t *testing.T, label string, qs []*Query, doc string) {
	t.Helper()
	bt := runQueryBatch(mux.NewSelective, qs, doc)
	for _, chunk := range streamChunks {
		checkStreamAgainst(t, label, runQueryStream(qs, doc, chunk), bt)
	}
}

// spliceDocument concatenates the root contents of n random documents
// under one root element: a document wide enough that streamed batches
// cross the inline threshold. It stays valid where the root's content
// model repeats; elsewhere it breaks the model partway through, which
// exercises mid-stream validation failures on the workers.
func spliceDocument(schema *dtd.Schema, seed int64, n int) string {
	open, end := "<"+schema.Root+">", "</"+schema.Root+">"
	var sb strings.Builder
	sb.WriteString(open)
	for k := 0; k < n; k++ {
		doc := dtd.RandomDocument(schema, seed+int64(k), dtd.GenOptions{})
		sb.WriteString(strings.TrimSuffix(strings.TrimPrefix(doc, open), end))
	}
	sb.WriteString(end)
	return sb.String()
}

// TestParallelDifferential runs the automaton differential's corpus
// through the streaming worker pool: random batches per fuzz schema,
// each over a small random document and a wide spliced one, streamed vs
// batch-scanned.
func TestParallelDifferential(t *testing.T) {
	const batchesPerSchema = 40
	batches := 0
	for si, dtdText := range fuzzSchemas {
		schema := dtd.MustParse(dtdText)
		for seed := 0; seed < batchesPerSchema; seed++ {
			r := rand.New(rand.NewSource(int64(si*7919 + seed)))
			qs := genQueryBatch(r, schema)
			if qs == nil {
				continue
			}
			batches++
			checkStreamChunks(t, t.Name(), qs, dtd.RandomDocument(schema, int64(seed*107), dtd.GenOptions{}))
			checkStreamChunks(t, t.Name(), qs, spliceDocument(schema, int64(seed*107+1), 60))
		}
	}
	t.Logf("streaming differential: %d batches", batches)
}

// FuzzParallelDispatch fuzzes the document bytes under seeded query
// batches: malformed XML, truncated documents, whatever — the streaming
// worker pool must agree with the batch scan, up to what scanner-level
// pruning hides (see checkStreamAgainst).
func FuzzParallelDispatch(f *testing.F) {
	for si := range fuzzSchemas {
		schema := dtd.MustParse(fuzzSchemas[si])
		doc := dtd.RandomDocument(schema, int64(si), dtd.GenOptions{})
		f.Add(si, int64(si*17+1), doc)
		f.Add(si, int64(si*17+2), doc+"<trailing-garbage>")
		f.Add(si, int64(si*17+3), strings.Replace(doc, "</", "<", 1))
	}
	f.Fuzz(func(t *testing.T, si int, qseed int64, doc string) {
		if si < 0 || si >= len(fuzzSchemas) {
			t.Skip()
		}
		schema := dtd.MustParse(fuzzSchemas[si])
		qs := genQueryBatch(rand.New(rand.NewSource(qseed)), schema)
		if qs == nil {
			t.Skip()
		}
		checkStreamChunks(t, "fuzz", qs, doc)
	})
}

// TestParallelWideGroups streams a batch routed through more than one
// 64-bit mask word — the 100 shared-prefix queries plus q1 and q13 over
// one XMark schema — through the worker pool at 4 KiB chunks, against
// the batch scan. A subscriber joins mid-stream, at the sync point
// before <closed_auctions>, after the pool has processed items: its
// fresh group lands past index 63, so workers intersect their ownership
// bitsets with the second mask word. The batch also runs cut down to
// its first 64 groups, where the joiner's group 64 widens the masks
// from one word to two between items.
func TestParallelWideGroups(t *testing.T) {
	schema := dtd.MustParse(xmark.DTD)
	texts := append(xmark.SharedPrefixQueries(100), xmark.Queries["q1"], xmark.Queries["q13"])
	qs := make([]*Query, len(texts))
	for i, qt := range texts {
		q, err := PrepareWithSchema(qt, schema)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		qs[i] = q
	}
	// The joiner misses the root's leading children, so it runs under
	// a schema whose root content model tolerates that — and, being a
	// different schema, always forms a fresh routing group.
	relaxed, err := Prepare(`<q> { for $t in /site/closed_auctions/closed_auction return {$t/price} } </q>`, strings.Replace(xmark.DTD,
		"(regions,categories,catgraph,people,open_auctions,closed_auctions)",
		"(regions?,categories?,catgraph?,people?,open_auctions?,closed_auctions?)", 1))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := xmark.Generate(&sb, xmark.GenOptions{Scale: xmark.ScaleForBytes(128 << 10), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	doc := sb.String()
	cut := strings.Index(doc, "<closed_auctions>")
	// The joiner observes the document suffix from its sync point on:
	// the root element's start tag, then everything from the cut.
	var want strings.Builder
	suffix := doc[:strings.Index(doc, "<site>")+len("<site>")] + doc[cut:]
	if _, err := relaxed.Run(strings.NewReader(suffix), &want, Options{}); err != nil || !strings.Contains(want.String(), "<price>") {
		t.Fatalf("solo run over the suffix: %v, output %.100q", err, want.String())
	}

	// The first 64 groups' worth of queries: the joiner becomes group 64.
	keys := make(map[string]bool)
	narrow := 0
	for ; len(keys) < 64 || keys[mux.GroupKey(qs[narrow].plan)]; narrow++ {
		keys[mux.GroupKey(qs[narrow].plan)] = true
	}
	for _, standing := range [][]*Query{qs, qs[:narrow]} {
		label := fmt.Sprintf("%d standing queries", len(standing))
		m := mux.NewStreaming()
		outs := make([]*strings.Builder, len(standing))
		for i, q := range standing {
			outs[i] = &strings.Builder{}
			m.Add(q.plan, outs[i])
		}
		if err := m.BeginStream(); err != nil {
			t.Fatal(err)
		}
		cs := sax.StartChunked(context.Background(), m, sax.Options{SkipWhitespaceText: true})
		write := func(part string) {
			for len(part) > 0 {
				n := min(4<<10, len(part))
				if _, err := cs.Write([]byte(part[:n])); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				part = part[n:]
			}
		}
		write(doc[:cut])
		var joined strings.Builder
		joinErr := make(chan error, 1)
		if err := m.AttachStream(nil, relaxed.plan, &joined, func(_ int, err error) { joinErr <- err }); err != nil {
			t.Fatal(err)
		}
		write(doc[cut:])
		scanErr := cs.Close()
		results := m.EndStream(scanErr)
		if err := <-joinErr; err != nil {
			t.Fatalf("%s: joiner rejected: %v", label, err)
		}
		groups := m.Groups()
		if standingGroups := len(groups) - 1; standingGroups < 64 || groups[standingGroups].Queries != 1 {
			t.Fatalf("%s: %d routing groups, want ≥ 64 standing plus the joiner's", label, len(groups))
		}
		st := streamRun{batchRun: batchRun{results: results[:len(standing)], err: scanErr, outs: make([]string, len(standing))}, parallel: m.ParallelActive()}
		for i, o := range outs {
			st.outs[i] = o.String()
		}
		checkStreamAgainst(t, label, st, runQueryBatch(mux.NewSelective, standing, doc))
		if jr := results[len(standing)]; jr.Err != nil {
			t.Fatalf("%s: joiner failed: %v", label, jr.Err)
		}
		if joined.String() != want.String() {
			t.Fatalf("%s: joiner output differs from a solo run over the suffix\nstream: %.200q\nsolo:   %.200q", label, joined.String(), want.String())
		}
	}
}
