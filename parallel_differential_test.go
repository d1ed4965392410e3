package flux

// Differential testing of the parallel per-group evaluation pipeline:
// the same random query batches and documents as the automaton
// differential, run through mux.NewSelective with SetParallel against
// the sequential automaton path. The parallel scan must agree exactly —
// stream error, per-query errors, output bytes, Stats — on every input,
// including malformed documents and batches where every query fails;
// SkippedEvents too, except after the all-queries-failed abort, where
// the parallel producer has routed past the abort token and may only
// report more (mux.SetParallel states the contract).

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"flux/internal/dtd"
	"flux/internal/mux"
	"flux/internal/sax"
)

// newParallelMux constructs the selective mux with parallel evaluation
// requested (it still falls back to sequential when GOMAXPROCS is 1 or
// the batch has a single routing group — the differential is valid
// either way, but the corpus is only interesting when workers run).
func newParallelMux() *mux.Mux {
	m := mux.NewSelective()
	m.SetParallel(true)
	return m
}

// allFailedAbort reports whether a batch run ended in the mux's
// all-queries-failed abort: over in-memory input with no scan context,
// the only other stream-level failure is malformed XML.
func allFailedAbort(r batchRun) bool {
	var syn *sax.SyntaxError
	return r.err != nil && !errors.As(r.err, &syn)
}

// checkParallelAgainst demands exact agreement between a parallel and a
// sequential run of the same batch: the pipeline reorders evaluation
// across groups, never per-query observable behavior. The one slack is
// SkippedEvents after an all-failed abort.
func checkParallelAgainst(t *testing.T, label string, par, seq batchRun) {
	t.Helper()
	if (par.err != nil) != (seq.err != nil) {
		t.Fatalf("%s: stream error disagreement: parallel %v, sequential %v", label, par.err, seq.err)
	}
	for i := range par.results {
		pr, sr := par.results[i], seq.results[i]
		if (pr.Err != nil) != (sr.Err != nil) {
			t.Fatalf("%s: query %d error disagreement: parallel %v, sequential %v", label, i, pr.Err, sr.Err)
		}
		if par.outs[i] != seq.outs[i] {
			t.Fatalf("%s: query %d output differs under parallel evaluation\nparallel:   %q\nsequential: %q",
				label, i, par.outs[i], seq.outs[i])
		}
		if pr.SkippedEvents < sr.SkippedEvents || (pr.SkippedEvents > sr.SkippedEvents && !allFailedAbort(par)) {
			t.Fatalf("%s: query %d skipped %d events parallel, %d sequential",
				label, i, pr.SkippedEvents, sr.SkippedEvents)
		}
		if pr.Stats != sr.Stats {
			t.Fatalf("%s: query %d stats differ under parallel evaluation\nparallel:   %+v\nsequential: %+v",
				label, i, pr.Stats, sr.Stats)
		}
	}
}

// TestParallelDifferential runs the automaton differential's full corpus
// through the parallel pipeline: N random batches per fuzz schema, each
// over several random documents, parallel vs sequential.
func TestParallelDifferential(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("parallel pipeline inactive at GOMAXPROCS=1")
	}
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
				seq := runQueryBatch(mux.NewSelective, qs, doc)
				par := runQueryBatch(newParallelMux, qs, doc)
				checkParallelAgainst(t, t.Name(), par, seq)
			}
		}
	}
	t.Logf("parallel differential: %d batches", batches)
}

// FuzzParallelDispatch fuzzes the document bytes under seeded query
// batches: malformed XML, truncated documents, whatever — the parallel
// pipeline must agree with the sequential automaton scan, exactly but
// for the all-queries-failed abort's skip counts.
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
		seq := runQueryBatch(mux.NewSelective, qs, doc)
		par := runQueryBatch(newParallelMux, qs, doc)
		checkParallelAgainst(t, "fuzz", par, seq)
	})
}
