package mux_test

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"flux/internal/core"
	"flux/internal/dtd"
	"flux/internal/engine"
	"flux/internal/mux"
	"flux/internal/sax"
)

var scanOpt = sax.Options{SkipWhitespaceText: true}

func compile(t *testing.T, dtdText, fluxText string) *engine.Plan {
	t.Helper()
	schema := dtd.MustParse(dtdText)
	f, err := core.ParseFlux(fluxText)
	if err != nil {
		t.Fatalf("parse %q: %v", fluxText, err)
	}
	plan, err := engine.Compile(schema, f)
	if err != nil {
		t.Fatalf("compile %q: %v", fluxText, err)
	}
	return plan
}

const testDTD = `
<!ELEMENT r (a*,b*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
`

const testDoc = `<r><a>1</a><a>2</a><b>x</b></r>`

// soloRun runs p alone over doc in one engine session. With routed
// false every event is delivered (engine.Run, the unrouted reference);
// with routed true the scan is signature-routed as a query's own Run is
// (engine.RunSelectiveContext).
func soloRun(t *testing.T, p *engine.Plan, doc string, routed bool) (string, engine.Stats) {
	t.Helper()
	var sb strings.Builder
	run := engine.Run
	if routed {
		run = func(p *engine.Plan, r io.Reader, w io.Writer, opt sax.Options) (engine.Stats, error) {
			return engine.RunSelectiveContext(context.Background(), p, r, w, opt)
		}
	}
	st, err := run(p, strings.NewReader(doc), &sb, scanOpt)
	if err != nil {
		t.Fatalf("solo run (routed %v): %v", routed, err)
	}
	return sb.String(), st
}

// TestSharedScanMatchesSingleRun: each plan in a shared scan must produce
// exactly the output and statistics of its own routed run, and the
// output and buffer statistics of an unrouted one. The scan tokenizes
// the document once: the copy plan observes every event, so nothing is
// pruned and the scan's event count is the unrouted run's.
func TestSharedScanMatchesSingleRun(t *testing.T) {
	plans := []*engine.Plan{
		compile(t, testDTD, `{ ps $ROOT: on r as $x return { $x } }`),
		compile(t, testDTD, `{ ps $ROOT: on-first past(*) return done }`),
	}

	m := mux.NewSelective()
	shared := make([]*strings.Builder, len(plans))
	for i, p := range plans {
		shared[i] = &strings.Builder{}
		if got := m.Add(p, shared[i]); got != i {
			t.Fatalf("Add returned slot %d, want %d", got, i)
		}
	}
	results, err := m.Run(nil, strings.NewReader(testDoc), scanOpt)
	if err != nil {
		t.Fatalf("shared run: %v", err)
	}
	var unroutedTokens int64
	for i, p := range plans {
		if results[i].Err != nil {
			t.Fatalf("query %d: %v", i, results[i].Err)
		}
		routedOut, routed := soloRun(t, p, testDoc, true)
		unroutedOut, unrouted := soloRun(t, p, testDoc, false)
		unroutedTokens = unrouted.Tokens
		if shared[i].String() != routedOut || shared[i].String() != unroutedOut {
			t.Errorf("query %d output: shared %q, routed %q, unrouted %q", i, shared[i].String(), routedOut, unroutedOut)
		}
		if results[i].Stats != routed {
			t.Errorf("query %d stats: shared %+v, routed solo %+v", i, results[i].Stats, routed)
		}
		if results[i].Stats.PeakBufferBytes != unrouted.PeakBufferBytes || results[i].Stats.OutputBytes != unrouted.OutputBytes {
			t.Errorf("query %d buffer stats: shared %+v, unrouted %+v", i, results[i].Stats, unrouted)
		}
	}
	if m.Events() != unroutedTokens {
		t.Errorf("shared scan tokenized %d events, an unrouted run processed %d tokens",
			m.Events(), unroutedTokens)
	}
}

// TestErrorIsolation: a plan whose DTD rejects the document must fail
// alone; its siblings complete with correct output.
func TestErrorIsolation(t *testing.T) {
	good := compile(t, testDTD, `{ ps $ROOT: on r as $x return { $x } }`)
	// This plan's DTD does not allow <a> inside <r>, so its validating
	// automaton fails mid-stream.
	bad := compile(t, `
<!ELEMENT r (b*)>
<!ELEMENT b (#PCDATA)>
`, `{ ps $ROOT: on r as $x return { $x } }`)

	m := mux.NewSelective()
	var goodOut, badOut strings.Builder
	gi := m.Add(good, &goodOut)
	bi := m.Add(bad, &badOut)
	results, err := m.Run(nil, strings.NewReader(testDoc), scanOpt)
	if err != nil {
		t.Fatalf("shared run: %v", err)
	}
	if results[bi].Err == nil {
		t.Error("bad plan: want a validation error, got nil")
	}
	if results[gi].Err != nil {
		t.Errorf("good plan poisoned by sibling: %v", results[gi].Err)
	}
	if goodOut.String() != testDoc {
		t.Errorf("good plan output = %q, want %q", goodOut.String(), testDoc)
	}
}

// TestAllFailed: when every plan fails the scan aborts early and Run
// reports it, with each per-query error preserved. Both plans observe
// the invalid <a>: the copy plan is delivered it, and the narrow plan
// skips it, but its parent's content model still validates the tag.
func TestAllFailed(t *testing.T) {
	badDTD := `
<!ELEMENT r (b*)>
<!ELEMENT b (#PCDATA)>
`
	m := mux.NewSelective()
	m.Add(compile(t, badDTD, `{ ps $ROOT: on r as $x return { $x } }`), &strings.Builder{})
	m.Add(compile(t, badDTD, `{ ps $ROOT: on r as $r return { ps $r: on b as $b return { $b } } }`), &strings.Builder{})
	results, err := m.Run(nil, strings.NewReader(testDoc), scanOpt)
	if err == nil {
		t.Fatal("want an all-queries-failed error, got nil")
	}
	for i, res := range results {
		if res.Err == nil {
			t.Errorf("query %d: want an error, got nil", i)
		}
	}
}

// TestMalformedInput: a stream-level failure is returned from Run and
// recorded on every query.
func TestMalformedInput(t *testing.T) {
	m := mux.NewSelective()
	m.Add(compile(t, testDTD, `{ ps $ROOT: on r as $x return { $x } }`), &strings.Builder{})
	m.Add(compile(t, testDTD, `{ ps $ROOT: on-first past(*) return done }`), &strings.Builder{})
	results, err := m.Run(nil, strings.NewReader(`<r><a>1</a>`), scanOpt)
	if err == nil {
		t.Fatal("want a syntax error for truncated input, got nil")
	}
	for i, res := range results {
		if res.Err == nil {
			t.Errorf("query %d: want the stream error, got nil", i)
		}
	}
}

// TestRunTwice: a Mux is single-use.
func TestRunTwice(t *testing.T) {
	m := mux.NewSelective()
	m.Add(compile(t, testDTD, `{ ps $ROOT: on-first past(*) return done }`), &strings.Builder{})
	if _, err := m.Run(nil, strings.NewReader(testDoc), scanOpt); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := m.Run(nil, strings.NewReader(testDoc), scanOpt); err == nil {
		t.Fatal("second Run: want an error, got nil")
	}
}

// TestAddContextDetachesCanceledSlot: a slot registered with an
// already-canceled context is detached at the first poll boundary while
// its sibling completes; its Result records ctx.Err() and the prefix
// stats.
func TestAddContextDetachesCanceledSlot(t *testing.T) {
	// A document long enough to cross the 256-event poll granularity.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 400; i++ {
		sb.WriteString("<a>1</a>")
	}
	sb.WriteString("</r>")
	doc := sb.String()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	m := mux.NewSelective()
	var canceledOut, liveOut strings.Builder
	m.AddContext(ctx, compile(t, testDTD, `{ ps $ROOT: on r as $x return { $x } }`), &canceledOut)
	m.Add(compile(t, testDTD, `{ ps $ROOT: on r as $x return { $x } }`), &liveOut)

	results, err := m.Run(nil, strings.NewReader(doc), scanOpt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("canceled slot err = %v, want context.Canceled", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("live slot err = %v", results[1].Err)
	}
	// The live plan copies the whole document.
	if liveOut.String() != doc {
		t.Fatalf("live slot output %d bytes, want %d", liveOut.Len(), len(doc))
	}
	if results[0].Stats.Tokens >= results[1].Stats.Tokens {
		t.Fatalf("canceled slot processed %d tokens, live %d; want an early detach",
			results[0].Stats.Tokens, results[1].Stats.Tokens)
	}
}

// TestRunCanceledScanContext: a canceled scan context fails every slot
// with ctx.Err().
func TestRunCanceledScanContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A document over 64 KB so the scanner reaches its input-batch
	// cancellation poll boundary.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 12000; i++ {
		sb.WriteString("<a>1</a>")
	}
	sb.WriteString("</r>")

	m := mux.NewSelective()
	m.Add(compile(t, testDTD, `{ ps $ROOT: on r as $x return { $x } }`), io.Discard)
	results, err := m.Run(ctx, strings.NewReader(sb.String()), scanOpt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("slot err = %v, want context.Canceled", results[0].Err)
	}
}

// --- selective fan-out ---------------------------------------------------

// selDTD has three disjoint top-level regions so narrow queries can be
// routed selectively.
const selDTD = `
<!ELEMENT r (a*,b*,c*)>
<!ELEMENT a (x,y)>
<!ELEMENT b (x)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
`

const selDoc = `<r>` +
	`<a><x>ax1</x><y>ay1</y></a><a><x>ax2</x><y>ay2</y></a>` +
	`<b><x>bx1</x></b><b><x>bx2</x></b>` +
	`<c>c1</c><c>c2</c>` +
	`</r>`

// selPlans compiles three narrow queries (one per region) plus one
// whole-document copy.
func selPlans(t *testing.T) []*engine.Plan {
	t.Helper()
	return []*engine.Plan{
		compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`),
		compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on b as $b return { $b } } }`),
		compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on c as $c return { $c } } }`),
		compile(t, selDTD, `{ ps $ROOT: on r as $r return { $r } }`),
	}
}

// TestSelectiveMatchesAllFanout: routing must change only the event
// counts — every plan's output and peak buffer bytes are identical to
// its unrouted run, which delivers every event (engine.Run), and
// narrow plans see strictly fewer events.
func TestSelectiveMatchesAllFanout(t *testing.T) {
	plans := selPlans(t)
	m := mux.NewSelective()
	outs := make([]*strings.Builder, len(plans))
	for i, p := range plans {
		outs[i] = &strings.Builder{}
		m.Add(p, outs[i])
	}
	selRes, err := m.Run(nil, strings.NewReader(selDoc), scanOpt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	for i, p := range plans {
		if selRes[i].Err != nil {
			t.Fatalf("plan %d: %v", i, selRes[i].Err)
		}
		allOut, all := soloRun(t, p, selDoc, false)
		if outs[i].String() != allOut {
			t.Errorf("plan %d output: routed %q, unrouted %q", i, outs[i].String(), allOut)
		}
		if selRes[i].Stats.PeakBufferBytes != all.PeakBufferBytes {
			t.Errorf("plan %d peak buffer: routed %d, unrouted %d",
				i, selRes[i].Stats.PeakBufferBytes, all.PeakBufferBytes)
		}
		// The narrow plans must have been delivered strictly fewer events
		// and their skip counters must say so; the whole-document copy
		// sees all.
		narrow := i < 3
		if narrow && (selRes[i].Stats.Tokens >= all.Tokens || selRes[i].SkippedEvents == 0) {
			t.Errorf("narrow plan %d: %d events delivered routed (%d skipped), want < %d and > 0 skipped",
				i, selRes[i].Stats.Tokens, selRes[i].SkippedEvents, all.Tokens)
		}
		if !narrow && (selRes[i].Stats.Tokens != all.Tokens || selRes[i].SkippedEvents != 0) {
			t.Errorf("copy plan: %d events delivered routed (%d skipped), want %d and 0 skipped",
				selRes[i].Stats.Tokens, selRes[i].SkippedEvents, all.Tokens)
		}
	}
}

// TestSelectiveGroups: plans with equal signatures route as one group;
// Groups reports formation order and skip counters.
func TestSelectiveGroups(t *testing.T) {
	// One parsed schema for all plans: grouping keys on schema identity
	// (as the Catalog provides it — one schema per distinct DTD text).
	schema := dtd.MustParse(selDTD)
	compileWith := func(fluxText string) *engine.Plan {
		f, err := core.ParseFlux(fluxText)
		if err != nil {
			t.Fatalf("parse %q: %v", fluxText, err)
		}
		plan, err := engine.Compile(schema, f)
		if err != nil {
			t.Fatalf("compile %q: %v", fluxText, err)
		}
		return plan
	}
	a1 := compileWith(`{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`)
	a2 := compileWith(`{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`)
	c := compileWith(`{ ps $ROOT: on r as $r return { ps $r: on c as $x return { $x } } }`)

	m := mux.NewSelective()
	m.Add(a1, io.Discard)
	m.Add(a2, io.Discard)
	m.Add(c, io.Discard)
	results, err := m.Run(nil, strings.NewReader(selDoc), scanOpt)
	if err != nil {
		t.Fatal(err)
	}
	groups := m.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (two identical signatures share one)", len(groups))
	}
	if groups[0].Queries != 2 || groups[1].Queries != 1 {
		t.Fatalf("group sizes = %+v, want [2 1]", groups)
	}
	for _, g := range groups {
		if g.SkippedEvents == 0 {
			t.Errorf("group skipped 0 events, want > 0: %+v", groups)
		}
	}
	if results[0].Stats.Tokens != results[1].Stats.Tokens {
		t.Errorf("same-group plans delivered different event counts: %d vs %d",
			results[0].Stats.Tokens, results[1].Stats.Tokens)
	}
}

// TestSelectiveErrorIsolation: a plan that consumes the whole document
// still validates it under selective routing, and its failure does not
// disturb narrow siblings.
func TestSelectiveErrorIsolation(t *testing.T) {
	narrow := compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on c as $x return { $x } } }`)
	// This plan's DTD does not allow <a> inside <r>, and it copies <r>,
	// so every event reaches it and its validating automaton fails.
	bad := compile(t, `
<!ELEMENT r (b*,c*)>
<!ELEMENT b (x)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT x (#PCDATA)>
`, `{ ps $ROOT: on r as $x return { $x } }`)

	m := mux.NewSelective()
	var narrowOut strings.Builder
	ni := m.Add(narrow, &narrowOut)
	bi := m.Add(bad, io.Discard)
	results, err := m.Run(nil, strings.NewReader(selDoc), scanOpt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if results[bi].Err == nil {
		t.Error("bad plan: want a validation error, got nil")
	}
	if results[ni].Err != nil {
		t.Errorf("narrow plan poisoned by sibling: %v", results[ni].Err)
	}
	if narrowOut.String() != "<c>c1</c><c>c2</c>" {
		t.Errorf("narrow plan output = %q", narrowOut.String())
	}
}

// TestSelectiveConstantQuery: a plan that consumes nothing from the
// stream skips the whole document in one step per top-level subtree and
// still produces its constant output.
func TestSelectiveConstantQuery(t *testing.T) {
	p := compile(t, selDTD, `{ ps $ROOT: on-first past(*) return done }`)
	m := mux.NewSelective()
	var out strings.Builder
	m.Add(p, &out)
	results, err := m.Run(nil, strings.NewReader(selDoc), scanOpt)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if out.String() != "done" {
		t.Errorf("output = %q, want %q", out.String(), "done")
	}
	if results[0].Stats.Tokens != 1 {
		t.Errorf("tokens = %d, want 1 (the whole document collapses to one skip)",
			results[0].Stats.Tokens)
	}
}

// TestSelectiveSpineTextValidation: stray character data at an observed
// (spine) element fails DTD validation under routing exactly as it does
// in an unrouted run — only the interior of skipped subtrees loses
// validation.
func TestSelectiveSpineTextValidation(t *testing.T) {
	// <r> is a spine position for this narrow query (only <b> matters).
	p := compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on b as $b return { $b } } }`)
	const badDoc = `<r>stray<b><x>bx1</x></b></r>`
	if _, err := engine.Run(p, strings.NewReader(badDoc), io.Discard, scanOpt); err == nil {
		t.Error("unrouted: stray text at spine element must fail validation")
	}
	m := mux.NewSelective()
	m.Add(p, io.Discard)
	results, _ := m.Run(nil, strings.NewReader(badDoc), scanOpt)
	if results[0].Err == nil {
		t.Error("routed: stray text at spine element must fail validation")
	}
}

// TestSelectiveMixedSpineTextWithheld: character data at a *mixed*
// spine position is provably irrelevant — always legal, never consumed
// — so routing withholds it (SigNode.DropText) while leaving output
// identical to an unrouted run.
func TestSelectiveMixedSpineTextWithheld(t *testing.T) {
	const mixedDTD = `
<!ELEMENT r (#PCDATA|a|b)*>
<!ELEMENT a (x)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT x (#PCDATA)>
`
	// Three non-whitespace text runs sit directly inside <r>, the narrow
	// query's spine.
	const doc = `<r>noise<a><x>v1</x></a>mid<a><x>v2</x></a>tail<b>bb</b></r>`
	q := `{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`

	p := compile(t, mixedDTD, q)
	m := mux.NewSelective()
	var out strings.Builder
	m.Add(p, &out)
	results, err := m.Run(nil, strings.NewReader(doc), scanOpt)
	if err != nil {
		t.Fatal(err)
	}
	selRes := results[0]
	if selRes.Err != nil {
		t.Fatal(selRes.Err)
	}
	allOut, all := soloRun(t, p, doc, false)
	if out.String() != allOut {
		t.Errorf("output diverged: routed %q, unrouted %q", out.String(), allOut)
	}
	// An unrouted run delivers every event: <r> tags (2), two <a>
	// subtrees (5 each), the <b> subtree (3), and the three text runs at
	// <r>.
	if want := int64(18); all.Tokens != want {
		t.Fatalf("unrouted tokens = %d, want %d", all.Tokens, want)
	}
	// Routing withholds the three spine text runs and collapses <b> into
	// one skip step: 2 + 5 + 5 + 1 = 13.
	if want := int64(13); selRes.Stats.Tokens != want {
		t.Errorf("routed tokens = %d, want %d (spine text must be withheld)",
			selRes.Stats.Tokens, want)
	}
	if selRes.SkippedEvents == 0 {
		t.Error("SkippedEvents = 0, want > 0 (withheld text counts as skipped)")
	}
}
