package flux_test

// Differential testing of the one parallel path, the stream hub's
// sub-muxes: the same random query batches and documents as the
// automaton differential, subscribed to a stream.Hub and pushed through
// an ingest at two chunk sizes, against the batch scan
// mux.NewSelective().Run. At GOMAXPROCS ≥ 2 the hub spreads the
// batch's routing groups over several sub-muxes, each on its own
// goroutine; at GOMAXPROCS=1 the same comparisons pin the one inline
// sub-mux.
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
// subscription.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"flux"
	"flux/internal/dtd"
	"flux/internal/mux"
	"flux/internal/sax"
	"flux/internal/stream"
	"flux/internal/xmark"
)

// streamChunks are the push sizes of the streaming side: small chunks
// make many small batches, large ones fill batches to their cap.
var streamChunks = []int{61, 4 << 10}

// queryRun is one query's outcome in a scan.
type queryRun struct {
	out                    string
	err                    error
	outputBytes, peakBytes int64
}

// scanRun is one scan of a query batch: the scan's own failure and
// every query's outcome.
type scanRun struct {
	err error
	qs  []queryRun
}

// schemaCatalog returns a catalog holding one stream-backed document
// per fuzz schema, named by schemaDoc.
func schemaCatalog(t testing.TB) *flux.Catalog {
	t.Helper()
	cat := flux.NewCatalog(flux.CatalogOptions{})
	for si, dtdText := range flux.FuzzSchemas {
		if err := cat.AddStream(schemaDoc(si), dtdText); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func schemaDoc(si int) string { return fmt.Sprintf("s%d", si) }

// sourceTexts returns the batch's query texts, duplicates included.
func sourceTexts(qs []*flux.Query) []string {
	ts := make([]string, len(qs))
	for i, q := range qs {
		ts[i] = q.SourceText()
	}
	return ts
}

// batchScan runs the texts, compiled through the catalog for doc, as
// one batch selective scan over xml.
func batchScan(t testing.TB, cat *flux.Catalog, doc string, texts []string, xml string) scanRun {
	t.Helper()
	m := mux.NewSelective()
	sbs := make([]*strings.Builder, len(texts))
	for i, text := range texts {
		q, err := cat.Prepare(doc, text)
		if err != nil {
			t.Fatalf("prepare %q: %v", text, err)
		}
		sbs[i] = &strings.Builder{}
		m.Add(q.Plan(), sbs[i])
	}
	results, err := m.Run(nil, strings.NewReader(xml), sax.Options{SkipWhitespaceText: true})
	run := scanRun{err: err, qs: make([]queryRun, len(texts))}
	for i, r := range results {
		run.qs[i] = queryRun{out: sbs[i].String(), err: r.Err, outputBytes: r.Stats.OutputBytes, peakBytes: r.Stats.PeakBufferBytes}
	}
	return run
}

// hubSub is a standing subscription and the buffer its results drain
// to; the buffer is read only after Done.
type hubSub struct {
	sub *stream.Subscription
	out *strings.Builder
}

func subscribe(t testing.TB, hub *stream.Hub, doc, text string) hubSub {
	t.Helper()
	hs := hubSub{out: &strings.Builder{}}
	sub, err := hub.Subscribe(context.Background(), doc, text, hs.out, stream.PolicyBlock)
	if err != nil {
		t.Fatalf("subscribe %q: %v", text, err)
	}
	hs.sub = sub
	return hs
}

// result waits for the subscription to end and returns its outcome.
func (hs hubSub) result() queryRun {
	<-hs.sub.Done()
	st := hs.sub.Stats()
	return queryRun{out: hs.out.String(), err: hs.sub.Err(), outputBytes: st.OutputBytes, peakBytes: st.PeakBufferBytes}
}

// push writes part to the ingest in chunk-byte pieces, stopping at the
// first failed Write (the scan died; Close reports why).
func push(ing *stream.Ingest, part string, chunk int) {
	for len(part) > 0 {
		n := min(chunk, len(part))
		if _, err := ing.Write([]byte(part[:n])); err != nil {
			return
		}
		part = part[n:]
	}
}

// hubScan subscribes the texts to doc on a fresh hub before its ingest
// starts, then pushes xml through the ingest in chunk-byte pieces.
func hubScan(t testing.TB, cat *flux.Catalog, doc string, texts []string, xml string, chunk int) scanRun {
	t.Helper()
	hub := stream.NewHub(cat, stream.Options{})
	defer hub.Close()
	subs := make([]hubSub, len(texts))
	for i, text := range texts {
		subs[i] = subscribe(t, hub, doc, text)
	}
	ing, err := hub.StartIngest(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	push(ing, xml, chunk)
	run := scanRun{err: ing.Close(), qs: make([]queryRun, len(texts))}
	for i, hs := range subs {
		run.qs[i] = hs.result()
	}
	return run
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
func checkStreamAgainst(t *testing.T, label string, st, bt scanRun) {
	t.Helper()
	if len(st.qs) != len(bt.qs) {
		t.Fatalf("%s: %d streaming results, %d batch results (stream %v, batch %v)",
			label, len(st.qs), len(bt.qs), st.err, bt.err)
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
		for i, r := range st.qs {
			if r.err == nil {
				t.Fatalf("%s: query %d: stream error %v missing from its subscription", label, i, st.err)
			}
		}
		return
	}
	for i := range st.qs {
		sr, br := st.qs[i], bt.qs[i]
		if (sr.err != nil) != (br.err != nil) {
			t.Fatalf("%s: query %d error disagreement: streaming %v, batch %v", label, i, sr.err, br.err)
		}
		so, bo := sr.out, br.out
		if sr.err != nil {
			n := min(len(so), len(bo))
			so, bo = so[:n], bo[:n]
		}
		if so != bo {
			t.Fatalf("%s: query %d output differs (failed: %v)\nstreaming: %q\nbatch:     %q",
				label, i, sr.err, sr.out, br.out)
		}
		if sr.outputBytes != br.outputBytes || sr.peakBytes != br.peakBytes {
			t.Fatalf("%s: query %d buffer stats differ: streaming output %d peak %d, batch output %d peak %d",
				label, i, sr.outputBytes, sr.peakBytes, br.outputBytes, br.peakBytes)
		}
	}
}

// checkStreamChunks runs the batch once and the stream at every chunk
// size, comparing each.
func checkStreamChunks(t *testing.T, label string, cat *flux.Catalog, doc string, texts []string, xml string) {
	t.Helper()
	bt := batchScan(t, cat, doc, texts, xml)
	for _, chunk := range streamChunks {
		checkStreamAgainst(t, label, hubScan(t, cat, doc, texts, xml, chunk), bt)
	}
}

// spliceDocument concatenates the root contents of n random documents
// under one root element: a document wide enough to span many batches.
// It stays valid where the root's content model repeats; elsewhere it
// breaks the model partway through, which exercises mid-stream
// validation failures on the sub-muxes.
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
// through the stream hub: random batches per fuzz schema, each over a
// small random document and a wide spliced one, streamed vs
// batch-scanned.
func TestParallelDifferential(t *testing.T) {
	const batchesPerSchema = 40
	cat := schemaCatalog(t)
	batches := 0
	for si, dtdText := range flux.FuzzSchemas {
		schema := dtd.MustParse(dtdText)
		for seed := 0; seed < batchesPerSchema; seed++ {
			r := rand.New(rand.NewSource(int64(si*7919 + seed)))
			qs := flux.GenQueryBatch(r, schema)
			if qs == nil {
				continue
			}
			batches++
			ts := sourceTexts(qs)
			checkStreamChunks(t, t.Name(), cat, schemaDoc(si), ts, dtd.RandomDocument(schema, int64(seed*107), dtd.GenOptions{}))
			checkStreamChunks(t, t.Name(), cat, schemaDoc(si), ts, spliceDocument(schema, int64(seed*107+1), 60))
		}
	}
	t.Logf("streaming differential: %d batches", batches)
}

// FuzzParallelDispatch fuzzes the document bytes under seeded query
// batches: malformed XML, truncated documents, whatever — the stream
// hub must agree with the batch scan, up to what scanner-level pruning
// hides (see checkStreamAgainst).
func FuzzParallelDispatch(f *testing.F) {
	for si := range flux.FuzzSchemas {
		schema := dtd.MustParse(flux.FuzzSchemas[si])
		doc := dtd.RandomDocument(schema, int64(si), dtd.GenOptions{})
		f.Add(si, int64(si*17+1), doc)
		f.Add(si, int64(si*17+2), doc+"<trailing-garbage>")
		f.Add(si, int64(si*17+3), strings.Replace(doc, "</", "<", 1))
	}
	cat := schemaCatalog(f)
	f.Fuzz(func(t *testing.T, si int, qseed int64, doc string) {
		if si < 0 || si >= len(flux.FuzzSchemas) {
			t.Skip()
		}
		schema := dtd.MustParse(flux.FuzzSchemas[si])
		qs := flux.GenQueryBatch(rand.New(rand.NewSource(qseed)), schema)
		if qs == nil {
			t.Skip()
		}
		checkStreamChunks(t, "fuzz", cat, schemaDoc(si), sourceTexts(qs), doc)
	})
}

// TestParallelWideGroups streams a batch routed through more than one
// 64-bit mask word — the 100 shared-prefix queries plus q1 and q13 over
// one XMark schema, 98 routing groups — through the hub at 4 KiB
// chunks, against the batch scan. Two subscribers join mid-stream: one
// with a fresh signature at the sync point before <open_auctions>,
// placed round-robin, and one sharing its signature at the sync point
// before <closed_auctions>, which joins that signature's sub-mux rather
// than the next one round-robin. The batch also runs cut down to its
// first 64 groups, where at GOMAXPROCS=1 the joiners' group 64 widens
// the one mux's masks from one word to two.
func TestParallelWideGroups(t *testing.T) {
	// The joiners miss the root's leading children, so the document is
	// served under a schema whose root content model tolerates that.
	cat := flux.NewCatalog(flux.CatalogOptions{})
	if err := cat.AddStream("xmark", strings.Replace(xmark.DTD,
		"(regions,categories,catgraph,people,open_auctions,closed_auctions)",
		"(regions?,categories?,catgraph?,people?,open_auctions?,closed_auctions?)", 1)); err != nil {
		t.Fatal(err)
	}
	standing := append(xmark.SharedPrefixQueries(100), xmark.Queries["q1"], xmark.Queries["q13"])
	qkeys := make([]string, len(standing))
	for i, text := range standing {
		q, err := cat.Prepare("xmark", text)
		if err != nil {
			t.Fatalf("query %q: %v", text, err)
		}
		qkeys[i] = mux.GroupKey(q.Plan())
	}
	// The first 64 groups' worth of queries: the joiners' group is then
	// group 64 at GOMAXPROCS=1.
	keys := make(map[string]bool)
	narrow := 0
	for ; len(keys) < 64 || keys[qkeys[narrow]]; narrow++ {
		keys[qkeys[narrow]] = true
	}
	for _, key := range qkeys[narrow:] {
		keys[key] = true
	}
	if len(keys) != 98 {
		t.Fatalf("%d standing routing groups, want 98", len(keys))
	}
	joiners := []string{
		`<q> { for $t in /site/closed_auctions/closed_auction return {$t/price} } </q>`,
		`<p> { for $t in /site/closed_auctions/closed_auction return {$t/price} } </p>`,
	}
	var joinerKeys []string
	for _, text := range joiners {
		q, err := cat.Prepare("xmark", text)
		if err != nil {
			t.Fatal(err)
		}
		joinerKeys = append(joinerKeys, mux.GroupKey(q.Plan()))
	}
	if joinerKeys[0] != joinerKeys[1] || keys[joinerKeys[0]] {
		t.Fatal("the joiners must share one signature no standing query has")
	}

	var sb strings.Builder
	if _, err := xmark.Generate(&sb, xmark.GenOptions{Scale: xmark.ScaleForBytes(128 << 10), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	doc := sb.String()
	cuts := []int{strings.Index(doc, "<open_auctions>"), strings.Index(doc, "<closed_auctions>")}
	// A joiner observes the document suffix from its sync point on — at
	// the latest its cut, as a sub-mux trails the scan but never leads
	// it; the joiners' closed-auction prices all lie past both cuts.
	root := doc[:strings.Index(doc, "<site>")+len("<site>")]
	var want []string
	for i, text := range joiners {
		q, _ := cat.Prepare("xmark", text)
		out, _, err := q.RunString(root+doc[cuts[i]:], flux.Options{})
		if err != nil || !strings.Contains(out, "<price>") {
			t.Fatalf("solo run over the suffix: %v, output %.100q", err, out)
		}
		want = append(want, out)
	}

	for _, texts := range [][]string{standing, standing[:narrow]} {
		label := fmt.Sprintf("%d standing queries", len(texts))
		hub := stream.NewHub(cat, stream.Options{})
		subs := make([]hubSub, len(texts))
		for i, text := range texts {
			subs[i] = subscribe(t, hub, "xmark", text)
		}
		ing, err := hub.StartIngest(context.Background(), "xmark")
		if err != nil {
			t.Fatal(err)
		}
		var joined []hubSub
		prev := 0
		for i, cut := range cuts {
			push(ing, doc[prev:cut], 4<<10)
			joined = append(joined, subscribe(t, hub, "xmark", joiners[i]))
			prev = cut
		}
		push(ing, doc[prev:], 4<<10)
		st := scanRun{err: ing.Close(), qs: make([]queryRun, len(texts))}
		for i, hs := range subs {
			st.qs[i] = hs.result()
		}
		checkStreamAgainst(t, label, st, batchScan(t, cat, "xmark", texts, doc))
		for i, hs := range joined {
			jr := hs.result()
			if jr.err != nil {
				t.Fatalf("%s: joiner %d failed: %v", label, i, jr.err)
			}
			if jr.out != want[i] {
				t.Fatalf("%s: joiner %d output differs from a solo run over the suffix\nstream: %.200q\nsolo:   %.200q", label, i, jr.out, want[i])
			}
		}
		hub.Close()
	}
}
