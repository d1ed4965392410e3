package flux

// Selective fan-out equivalence at workload scale: for the paper's five
// XMark queries (overlapping projections, buffering and streaming plans
// mixed) plus the disjoint fan-out set, routing events by signature must
// change nothing observable except the number of events delivered.

import (
	"strings"
	"testing"

	"flux/internal/mux"
	"flux/internal/sax"
	"flux/internal/xmark"
)

// TestSelectiveEquivalenceXMark: every XMark query run in one selective
// shared scan produces byte-identical output and identical peak buffer
// bytes to its solo run, while being delivered no more events (solo runs
// are themselves signature-routed, so the counts typically match); the
// narrow fan-out queries must see strictly fewer events than the stream
// tokenizes.
func TestSelectiveEquivalenceXMark(t *testing.T) {
	doc := xmarkTestDoc(t, 96<<10)

	names := append([]string{}, xmark.QueryNames...)
	queries := make([]*Query, 0, len(names)+len(xmark.FanoutQueries))
	for _, name := range names {
		q, err := Prepare(xmark.Queries[name], xmark.DTD)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		queries = append(queries, q)
	}
	for i, qt := range xmark.FanoutQueries {
		q, err := Prepare(qt, xmark.DTD)
		if err != nil {
			t.Fatalf("fanout %d: %v", i, err)
		}
		queries = append(queries, q)
		names = append(names, qt)
	}

	solo := make([]string, len(queries))
	soloStats := make([]Stats, len(queries))
	for i, q := range queries {
		var sb strings.Builder
		st, err := q.Run(strings.NewReader(doc), &sb, Options{})
		if err != nil {
			t.Fatalf("solo %s: %v", names[i], err)
		}
		solo[i], soloStats[i] = sb.String(), st
	}

	m := mux.NewSelective()
	outs := make([]*strings.Builder, len(queries))
	for i, q := range queries {
		outs[i] = &strings.Builder{}
		m.Add(q.plan, outs[i])
	}
	results, err := m.Run(nil, strings.NewReader(doc), sax.Options{SkipWhitespaceText: true})
	if err != nil {
		t.Fatalf("selective shared scan: %v", err)
	}
	for i := range queries {
		if results[i].Err != nil {
			t.Fatalf("%s: %v", names[i], results[i].Err)
		}
		if outs[i].String() != solo[i] {
			t.Errorf("%s: selective output differs (%d bytes vs %d)",
				names[i], outs[i].Len(), len(solo[i]))
		}
		if results[i].Stats.PeakBufferBytes != soloStats[i].PeakBufferBytes {
			t.Errorf("%s: selective peak buffer %d, solo %d",
				names[i], results[i].Stats.PeakBufferBytes, soloStats[i].PeakBufferBytes)
		}
		if results[i].Stats.Tokens > soloStats[i].Tokens {
			t.Errorf("%s: selective delivered %d events, solo %d — must never deliver more",
				names[i], results[i].Stats.Tokens, soloStats[i].Tokens)
		}
	}
	// The disjoint fan-out queries are narrow: each must be delivered
	// strictly fewer events than the full stream tokenizes.
	var total int64
	n := func(string) error { total++; return nil }
	if err := sax.Scan(strings.NewReader(doc), sax.HandlerFuncs{
		Start: n, End: n, Chars: func(string) error { total++; return nil },
	}, sax.Options{SkipWhitespaceText: true}); err != nil {
		t.Fatal(err)
	}
	for i := len(xmark.QueryNames); i < len(queries); i++ {
		if results[i].Stats.Tokens >= total {
			t.Errorf("%s: selective delivered %d events, want < %d (full stream)",
				names[i], results[i].Stats.Tokens, total)
		}
	}
}

// TestRunAllRoutesLikeRun: RunAll routes each query as its own Run
// does. A DTD violation inside a subtree the query ignores is reported
// by neither — the query is not delivered that subtree's interior —
// while ValidateDocument reports it, and RunAll's output and statistics
// equal the solo Run's.
func TestRunAllRoutesLikeRun(t *testing.T) {
	const dtdText = `
<!ELEMENT bib (book*,note?)>
<!ELEMENT book (title,year)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT note (#PCDATA)>
`
	// <note> holds text only: the <b> inside it breaks the DTD in a
	// subtree the query never looks at.
	const doc = `<bib><book><title>FluX</title><year>2004</year></book><note>see <b>also</b></note></bib>`
	q, err := Prepare(`<out> { for $b in /bib/book return {$b/title} } </out>`, dtdText)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.ValidateDocument(strings.NewReader(doc), Options{}); err == nil {
		t.Fatal("ValidateDocument: want the <b> inside <note> reported, got nil")
	}
	var solo strings.Builder
	st, err := q.Run(strings.NewReader(doc), &solo, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var shared strings.Builder
	results, err := RunAll([]*Query{q}, strings.NewReader(doc), Options{}, &shared)
	if err != nil || results[0].Err != nil {
		t.Fatalf("RunAll: scan %v, query %v; want the ignored subtree unvalidated, as Run leaves it", err, results[0].Err)
	}
	if shared.String() != solo.String() || results[0].Stats != st {
		t.Errorf("RunAll output %q stats %+v, Run output %q stats %+v",
			shared.String(), results[0].Stats, solo.String(), st)
	}
}
