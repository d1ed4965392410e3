package flux

// Differential testing of the merged path automaton: random query
// batches (disjoint, overlapping, and identical-signature mixes) run
// through automaton dispatch (mux.NewSelective) against three
// references. The naive DOM engine (Options{Engine: Naive}) is the
// output oracle: byte equality wherever both succeed. A machine prebuilt the
// executor's way and installed with SetMachine must agree with the
// fresh build exactly — stream error, per-query errors, output bytes,
// and SkippedEvents. And each query's solo routed run (Query.Run:
// scanner pruning plus one session, no mux) is the per-query reference:
// same error-ness, same output bytes, and the batch never delivers a
// query more tokens than its solo run saw. The skip arithmetic itself
// is pinned by internal/autom's hand-computed unit tests.

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"flux/internal/autom"
	"flux/internal/dtd"
	"flux/internal/mux"
	"flux/internal/sax"
	"flux/internal/xq"
)

// batchRun is one mux execution of a query batch over one document.
type batchRun struct {
	outs    []string
	results []mux.Result
	err     error
}

// runQueryBatch executes the batch through a fresh mux of the given
// construction over doc.
func runQueryBatch(newMux func() *mux.Mux, qs []*Query, doc string) batchRun {
	m := newMux()
	sbs := make([]*strings.Builder, len(qs))
	for i, q := range qs {
		sbs[i] = &strings.Builder{}
		m.Add(q.plan, sbs[i])
	}
	results, err := m.Run(nil, strings.NewReader(doc), sax.Options{SkipWhitespaceText: true})
	out := batchRun{results: results, err: err, outs: make([]string, len(qs))}
	for i, sb := range sbs {
		out.outs[i] = sb.String()
	}
	return out
}

// genQueryBatch compiles a random batch of 2–6 queries against schema,
// mixing fresh random queries (overlapping or disjoint paths as the
// generator falls) with occasional exact duplicates (identical
// signatures, exercising multi-member groups). Returns nil when fewer
// than two generated queries compile.
func genQueryBatch(r *rand.Rand, schema *dtd.Schema) []*Query {
	n := 2 + r.Intn(5)
	var qs []*Query
	for len(qs) < n {
		if len(qs) > 0 && r.Intn(4) == 0 {
			qs = append(qs, qs[r.Intn(len(qs))]) // identical-signature member
			continue
		}
		g := &queryGen{r: rand.New(rand.NewSource(r.Int63())), schema: schema}
		ast := g.build([]binding{{xq.RootVar, dtd.DocumentVar}}, 4)
		q, err := PrepareWithSchema(xq.Print(ast), schema)
		if err != nil {
			n-- // engine limitation; shrink the batch rather than spin
			if n < 2 {
				break
			}
			continue
		}
		qs = append(qs, q)
	}
	if len(qs) < 2 {
		return nil
	}
	return qs
}

// newInstalledMux returns a constructor for selective muxes routing by
// a machine prebuilt the way the executor's cache builds it — distinct
// group keys in sorted order — and installed with SetMachine, so the
// differential also covers that installation path.
func newInstalledMux(qs []*Query) func() *mux.Mux {
	seen := make(map[string]bool)
	var groups []autom.Group
	for _, q := range qs {
		key := mux.GroupKey(q.plan)
		if seen[key] {
			continue
		}
		seen[key] = true
		groups = append(groups, autom.Group{Key: key, Sig: q.plan.Signature()})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	mach := autom.Build(groups)
	return func() *mux.Mux {
		m := mux.NewSelective()
		m.SetMachine(mach)
		return m
	}
}

// checkAgainstOracle compares each query of an automaton run with the
// naive DOM engine's evaluation of the same query over the same
// document: byte equality wherever both succeeded (an automaton success
// never hides an output difference).
func checkAgainstOracle(t *testing.T, label string, auto batchRun, qs []*Query, doc string) {
	t.Helper()
	if auto.err != nil {
		return
	}
	for i, q := range qs {
		if auto.results[i].Err != nil {
			continue
		}
		naive, _, err := q.RunString(doc, Options{Engine: Naive})
		if err == nil && auto.outs[i] != naive {
			t.Fatalf("%s: query %d output differs from the naive engine\nautomaton: %q\nnaive:     %q",
				label, i, auto.outs[i], naive)
		}
	}
}

// checkInstalledMachine compares a run over a SetMachine-installed
// automaton with the run that built its own: the two must agree on
// every observable, skip counts included.
func checkInstalledMachine(t *testing.T, label string, installed, fresh batchRun) {
	t.Helper()
	if (installed.err != nil) != (fresh.err != nil) {
		t.Fatalf("%s: stream error disagreement: installed %v, fresh %v", label, installed.err, fresh.err)
	}
	for i := range installed.results {
		ir, fr := installed.results[i], fresh.results[i]
		if (ir.Err != nil) != (fr.Err != nil) {
			t.Fatalf("%s: query %d error disagreement: installed %v, fresh %v", label, i, ir.Err, fr.Err)
		}
		if installed.outs[i] != fresh.outs[i] {
			t.Fatalf("%s: query %d output differs\ninstalled: %q\nfresh:     %q",
				label, i, installed.outs[i], fresh.outs[i])
		}
		if ir.SkippedEvents != fr.SkippedEvents {
			t.Fatalf("%s: query %d skipped %d events on the installed machine, %d on the fresh one",
				label, i, ir.SkippedEvents, fr.SkippedEvents)
		}
	}
}

// checkAgainstSolo compares each query of an automaton run with its
// solo routed run over the same document. A batch that hit malformed
// XML is not compared: the batch scanner tokenizes regions the solo
// scan, pruning by one signature only, consumes raw and never checks.
func checkAgainstSolo(t *testing.T, label string, auto batchRun, qs []*Query, doc string) {
	t.Helper()
	var syn *sax.SyntaxError
	if errors.As(auto.err, &syn) {
		return
	}
	for i, q := range qs {
		var out strings.Builder
		st, err := q.Run(strings.NewReader(doc), &out, Options{})
		ar := auto.results[i]
		if (ar.Err != nil) != (err != nil) {
			t.Fatalf("%s: query %d error disagreement: batch %v, solo %v", label, i, ar.Err, err)
		}
		if auto.outs[i] != out.String() {
			t.Fatalf("%s: query %d output differs from its solo run\nbatch: %q\nsolo:  %q",
				label, i, auto.outs[i], out.String())
		}
		if ar.Stats.Tokens > st.Tokens {
			t.Fatalf("%s: query %d was delivered %d tokens in the batch, %d solo; routing must not deliver more",
				label, i, ar.Stats.Tokens, st.Tokens)
		}
		if ar.Err == nil && (ar.Stats.PeakBufferBytes != st.PeakBufferBytes || ar.Stats.OutputBytes != st.OutputBytes) {
			t.Fatalf("%s: query %d buffer stats differ: batch peak %d output %d, solo peak %d output %d",
				label, i, ar.Stats.PeakBufferBytes, ar.Stats.OutputBytes, st.PeakBufferBytes, st.OutputBytes)
		}
	}
}

// TestAutomatonDifferential is the routing backbone: N random query
// batches per fuzz schema, each over several random valid documents,
// against all three references.
func TestAutomatonDifferential(t *testing.T) {
	const batchesPerSchema = 40
	const docsPerBatch = 2
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
			for d := 0; d < docsPerBatch; d++ {
				doc := dtd.RandomDocument(schema, int64(seed*107+d), dtd.GenOptions{})
				label := t.Name()
				auto := runQueryBatch(mux.NewSelective, qs, doc)
				checkAgainstOracle(t, label, auto, qs, doc)
				checkAgainstSolo(t, label, auto, qs, doc)
				// Every other document: the executor's cache path — a
				// machine prebuilt from sorted distinct keys and installed
				// via SetMachine must route identically to the fresh build.
				if d%2 == 1 {
					installed := runQueryBatch(newInstalledMux(qs), qs, doc)
					checkInstalledMachine(t, label+" (SetMachine)", installed, auto)
				}
			}
		}
	}
	if batches*2 < batchesPerSchema*len(fuzzSchemas) {
		t.Errorf("too few batches compiled: %d of %d possible", batches, batchesPerSchema*len(fuzzSchemas))
	}
	t.Logf("automaton differential: %d batches", batches)
}

// FuzzAutomatonDispatch fuzzes the document bytes under seeded query
// batches: whatever the input — malformed XML included — automaton
// dispatch must match the naive engine's output wherever both succeed
// (the naive engine parses regions routing prunes and validates the
// whole document, so it may legitimately reject inputs the automaton
// run accepts), must
// not depend on whether its machine was built or installed, and must
// agree with every query's solo run wherever the batch scan saw
// well-formed input.
func FuzzAutomatonDispatch(f *testing.F) {
	for si := range fuzzSchemas {
		schema := dtd.MustParse(fuzzSchemas[si])
		doc := dtd.RandomDocument(schema, int64(si), dtd.GenOptions{})
		f.Add(si, int64(si*13+1), doc)
		f.Add(si, int64(si*13+2), doc+"<trailing-garbage>")
		f.Add(si, int64(si*13+3), strings.Replace(doc, "</", "<", 1))
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
		auto := runQueryBatch(mux.NewSelective, qs, doc)
		checkAgainstOracle(t, "fuzz", auto, qs, doc)
		installed := runQueryBatch(newInstalledMux(qs), qs, doc)
		checkInstalledMachine(t, "fuzz (SetMachine)", installed, auto)
		checkAgainstSolo(t, "fuzz", auto, qs, doc)
	})
}
