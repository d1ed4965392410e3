package sax

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// batchCollector adapts Collector's event recording to batched
// delivery, copying each Text payload at the retention point as the
// Batch contract requires.
type batchCollector struct {
	Events  []Event
	Batches int
}

func (c *batchCollector) HandleBatch(b *Batch) error {
	c.Batches++
	for i := range b.Tokens {
		tok := &b.Tokens[i]
		switch tok.Kind {
		case Text:
			c.Events = append(c.Events, Event{Kind: Text, Data: string(tok.Data)})
		default:
			c.Events = append(c.Events, Event{Kind: tok.Kind, Name: tok.Name})
		}
	}
	return nil
}

// batchDocs is the differential corpus: every construct the scanner
// handles, plus documents large enough to force multiple batches and a
// full ring wrap.
var batchDocs = []string{
	`<a>hi</a>`,
	`<r><a>1</a><a>2</a><b>x</b></r>`,
	`<a/>`,
	`<a b="c" d='e'>t</a>`,
	`<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r (#PCDATA)>]><r>x</r>`,
	`<a><!-- comment --><![CDATA[<raw>&amp;]]></a>`,
	`<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x41;</a>`,
	"<a> <b></b>\n</a>",
	bigDoc(200),
	bigDoc(5000),
}

// bigDoc builds a document with n repeated records — enough, for large
// n, to overflow maxBatchTokens several times over and wrap the batch
// ring.
func bigDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<item id="%d"><name>item %d</name><note><![CDATA[n&%d]]></note></item>`, i, i, i)
	}
	sb.WriteString("</root>")
	return sb.String()
}

func batchEventsEqual(t *testing.T, want, got []Event, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: event %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestScanBatchedMatchesScan: batched delivery is a pure transport
// change — for every document in the corpus the token stream is
// identical to the per-event Handler stream, and large documents really
// do arrive in multiple batches.
func TestScanBatchedMatchesScan(t *testing.T) {
	for i, doc := range batchDocs {
		var legacy Collector
		if err := ScanString(doc, &legacy, Options{}); err != nil {
			t.Fatalf("doc %d: legacy scan: %v", i, err)
		}
		var batched batchCollector
		if err := ScanBatchedString(doc, &batched, Options{}); err != nil {
			t.Fatalf("doc %d: batched scan: %v", i, err)
		}
		batchEventsEqual(t, legacy.Events, batched.Events, fmt.Sprintf("doc %d", i))
		if len(doc) > 100_000 && batched.Batches <= batchRingSize {
			t.Fatalf("doc %d: %d batches for a %d-byte document, want enough to wrap the ring", i, batched.Batches, len(doc))
		}
	}
}

// TestScanBatchedConcurrent: pooled scanners, batches, and arenas must
// not leak state between concurrent scans. Run with -race.
func TestScanBatchedConcurrent(t *testing.T) {
	doc := bigDoc(1200)
	var want Collector
	if err := ScanString(doc, &want, Options{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var got batchCollector
				if err := ScanBatchedString(doc, &got, Options{}); err != nil {
					errs <- err
					return
				}
				if len(got.Events) != len(want.Events) {
					errs <- fmt.Errorf("%d events, want %d", len(got.Events), len(want.Events))
					return
				}
				for j := range want.Events {
					if got.Events[j] != want.Events[j] {
						errs <- fmt.Errorf("event %d = %v, want %v", j, got.Events[j], want.Events[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// cancelAfterReader cancels a context once after reads reads, so the
// scanner observes cancellation at its next input-buffer poll — mid
// document, with a batch partially filled.
type cancelAfterReader struct {
	r      io.Reader
	cancel context.CancelFunc
	reads  int
}

func (cr *cancelAfterReader) Read(p []byte) (int, error) {
	if cr.reads == 0 && cr.cancel != nil {
		cr.cancel()
		cr.cancel = nil
	}
	cr.reads--
	return cr.r.Read(p)
}

// TestScanBatchedCancelMidBatch: a context canceled mid-scan still
// flushes the accumulated event prefix, reports context.Canceled, and
// returns the ring's arenas to the pool exactly once — verified
// behaviorally by interleaving canceled and complete scans (a
// double-released arena would be handed to two scanners at once and
// corrupt the complete scans' payloads; run with -race).
func TestScanBatchedCancelMidBatch(t *testing.T) {
	doc := bigDoc(5000) // several input blocks, so the cancel lands mid-scan
	var want Collector
	if err := ScanString(doc, &want, Options{}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var got batchCollector
	err := ScanBatchedContext(ctx, &cancelAfterReader{r: strings.NewReader(doc), cancel: cancel}, &got, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled scan returned %v, want context.Canceled", err)
	}
	if len(got.Events) == 0 || len(got.Events) >= len(want.Events) {
		t.Fatalf("canceled scan delivered %d events, want a strict non-empty prefix of %d", len(got.Events), len(want.Events))
	}
	batchEventsEqual(t, want.Events[:len(got.Events)], got.Events, "canceled prefix")

	// Interleave canceled and complete scans concurrently: shared arenas
	// from a double release would corrupt the complete scans' output.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if g%2 == 0 {
					cctx, ccancel := context.WithCancel(context.Background())
					var c batchCollector
					err := ScanBatchedContext(cctx, &cancelAfterReader{r: strings.NewReader(doc), cancel: ccancel}, &c, Options{})
					ccancel()
					if !errors.Is(err, context.Canceled) {
						errs <- fmt.Errorf("canceled scan: %v", err)
						return
					}
					continue
				}
				var c batchCollector
				if err := ScanBatchedString(doc, &c, Options{}); err != nil {
					errs <- err
					return
				}
				if len(c.Events) != len(want.Events) {
					errs <- fmt.Errorf("complete scan saw %d events, want %d", len(c.Events), len(want.Events))
					return
				}
				for j := range want.Events {
					if c.Events[j] != want.Events[j] {
						errs <- fmt.Errorf("complete scan event %d = %v, want %v", j, c.Events[j], want.Events[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestScanBatchedHandlerError: a handler error mid-stream aborts the
// scan, and the pools survive to serve the next scan.
func TestScanBatchedHandlerError(t *testing.T) {
	doc := bigDoc(5000)
	boom := errors.New("boom")
	n := 0
	if err := ScanBatched(strings.NewReader(doc), batchFunc(func(b *Batch) error {
		if n++; n == 2 {
			return boom
		}
		return nil
	}), Options{}); !errors.Is(err, boom) {
		t.Fatalf("scan returned %v, want the handler's error", err)
	}
	var again batchCollector
	if err := ScanBatchedString(doc, &again, Options{}); err != nil {
		t.Fatalf("scan after handler failure: %v", err)
	}
	// A handler error raised while the events before a syntax error are
	// flushed does not displace the syntax error.
	var syn *SyntaxError
	if err := ScanBatchedString("<a><b/><c></a>", batchFunc(func(*Batch) error { return boom }), Options{}); !errors.As(err, &syn) {
		t.Fatalf("scan returned %v, want the *SyntaxError", err)
	}
}

// batchFunc adapts a function to BatchHandler.
type batchFunc func(*Batch) error

func (f batchFunc) HandleBatch(b *Batch) error { return f(b) }

// pruneDoc exercises every construct the raw-skip path must consume
// inside a pruned subtree: nested elements, attributes, CDATA with
// embedded markup, comments, processing instructions, self-closing
// tags, and quoted '>' characters.
const pruneDoc = `<site><people>` +
	`<person id="p0"><name>Al</name><watches><watch o="a>b"/><!-- x --><watch o="c"/></watches></person>` +
	`<person id="p1"><name>Bo</name><profile><?pi data?><interest c="k"/><desc><![CDATA[</desc> fake]]></desc></profile></person>` +
	`</people><regions><africa><item id="i0"><name>x</name></item></africa></regions></site>`

// TestScanBatchedPrune: a prune trie turns every subtree outside it into
// a single SkipElement token — no interior events, raw bytes never
// decoded — while kept subtrees arrive exactly as in an unpruned scan.
func TestScanBatchedPrune(t *testing.T) {
	// Keep /site/people/person/name; prune everything else under person,
	// and all of regions.
	prune := &PruneNode{Kids: map[string]*PruneNode{
		"site": {Kids: map[string]*PruneNode{
			"people": {Kids: map[string]*PruneNode{
				"person": {Kids: map[string]*PruneNode{
					"name": {All: true},
				}},
			}},
		}},
	}}
	var got batchCollector
	if err := ScanBatchedString(pruneDoc, &got, Options{Prune: prune}); err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: StartElement, Name: "site"},
		{Kind: StartElement, Name: "people"},
		{Kind: StartElement, Name: "person"},
		{Kind: StartElement, Name: "name"}, {Kind: Text, Data: "Al"}, {Kind: EndElement, Name: "name"},
		{Kind: SkipElement, Name: "watches"},
		{Kind: EndElement, Name: "person"},
		{Kind: StartElement, Name: "person"},
		{Kind: StartElement, Name: "name"}, {Kind: Text, Data: "Bo"}, {Kind: EndElement, Name: "name"},
		{Kind: SkipElement, Name: "profile"},
		{Kind: EndElement, Name: "person"},
		{Kind: EndElement, Name: "people"},
		{Kind: SkipElement, Name: "regions"},
		{Kind: EndElement, Name: "site"},
	}
	batchEventsEqual(t, want, got.Events, "pruned scan")
}

// TestScanBatchedPruneAttrs: under AttrsToSubelements, attribute
// subelements obey the trie like real children — a kept attribute
// arrives as its synthetic element, a pruned one as a SkipElement.
func TestScanBatchedPruneAttrs(t *testing.T) {
	prune := &PruneNode{Kids: map[string]*PruneNode{
		"r": {Kids: map[string]*PruneNode{
			"p": {Kids: map[string]*PruneNode{
				"p_a": {All: true},
			}},
		}},
	}}
	var got batchCollector
	err := ScanBatchedString(`<r><p a="1" b="2">t</p></r>`, &got, Options{Prune: prune, AttrsToSubelements: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: StartElement, Name: "r"},
		{Kind: StartElement, Name: "p"},
		{Kind: StartElement, Name: "p_a"}, {Kind: Text, Data: "1"}, {Kind: EndElement, Name: "p_a"},
		{Kind: SkipElement, Name: "p_b"},
		{Kind: Text, Data: "t"},
		{Kind: EndElement, Name: "p"},
		{Kind: EndElement, Name: "r"},
	}
	batchEventsEqual(t, want, got.Events, "attr prune")
}

// TestScanBatchedPruneAll: an all-accepting trie (and trie nodes with
// All set partway down) change nothing — the stream is identical to an
// unpruned scan on every corpus document.
func TestScanBatchedPruneAll(t *testing.T) {
	for i, doc := range append(batchDocs, pruneDoc) {
		var want batchCollector
		if err := ScanBatchedString(doc, &want, Options{}); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		var got batchCollector
		if err := ScanBatchedString(doc, &got, Options{Prune: &PruneNode{All: true}}); err != nil {
			t.Fatalf("doc %d with prune: %v", i, err)
		}
		batchEventsEqual(t, want.Events, got.Events, fmt.Sprintf("doc %d", i))
	}
}

// TestScanBatchedPruneSelfClose: a pruned element that happens to be
// self-closing (or empty) still yields exactly one SkipElement.
func TestScanBatchedPruneSelfClose(t *testing.T) {
	prune := &PruneNode{Kids: map[string]*PruneNode{
		"r": {Kids: map[string]*PruneNode{"keep": {All: true}}},
	}}
	var got batchCollector
	if err := ScanBatchedString(`<r><drop/><drop></drop><keep>x</keep></r>`, &got, Options{Prune: prune}); err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: StartElement, Name: "r"},
		{Kind: SkipElement, Name: "drop"},
		{Kind: SkipElement, Name: "drop"},
		{Kind: StartElement, Name: "keep"}, {Kind: Text, Data: "x"}, {Kind: EndElement, Name: "keep"},
		{Kind: EndElement, Name: "r"},
	}
	batchEventsEqual(t, want, got.Events, "self-close prune")
}

// TestScanBatchedPruneMalformed: raw skipping still detects an
// unterminated document inside a pruned subtree instead of reporting
// bogus success.
func TestScanBatchedPruneMalformed(t *testing.T) {
	prune := &PruneNode{Kids: map[string]*PruneNode{
		"r": {Kids: map[string]*PruneNode{"keep": {All: true}}},
	}}
	for _, doc := range []string{
		`<r><drop><a>`,           // pruned subtree never closes
		`<r><drop><![CDATA[x`,    // CDATA runs off the end
		`<r><drop att="unclosed`, // attribute quote runs off the end
		`<r><drop><!-- comment `, // comment runs off the end
	} {
		var got batchCollector
		if err := ScanBatchedString(doc, &got, Options{Prune: prune}); err == nil {
			t.Fatalf("scan of %q succeeded, want a truncation error", doc)
		}
	}
}
