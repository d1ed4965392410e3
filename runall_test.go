package flux

// Tests for the shared-scan entry point: RunAll must be observationally
// identical to N independent Run calls — same outputs, same per-query
// statistics — while paying for a single pass of the input, and must stay
// correct under concurrent batches (the fluxd serving pattern).

import (
	"io"
	"strings"
	"sync"
	"testing"

	"flux/internal/xmark"
)

// prepareXmarkQueries compiles the five Figure 4 benchmark queries.
func prepareXmarkQueries(t testing.TB) []*Query {
	t.Helper()
	queries := make([]*Query, 0, len(xmark.QueryNames))
	for _, name := range xmark.QueryNames {
		q, err := Prepare(xmark.Queries[name], xmark.DTD)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		queries = append(queries, q)
	}
	return queries
}

// xmarkTestDoc returns a small generated XMark document.
func xmarkTestDoc(t testing.TB, bytes int64) string {
	t.Helper()
	var sb strings.Builder
	if _, err := xmark.Generate(&sb, xmark.GenOptions{Scale: xmark.ScaleForBytes(bytes), Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRunAllMatchesRun: outputs and statistics of a shared scan are
// identical to those of independent runs, query by query: RunAll routes
// each query by its signature exactly as its solo Run does, so even the
// delivered event counts match.
func TestRunAllMatchesRun(t *testing.T) {
	queries := prepareXmarkQueries(t)
	doc := xmarkTestDoc(t, 64<<10)

	wantOut := make([]string, len(queries))
	wantStats := make([]Stats, len(queries))
	for i, q := range queries {
		out, st, err := q.RunString(doc, Options{})
		if err != nil {
			t.Fatalf("%s: single run: %v", xmark.QueryNames[i], err)
		}
		wantOut[i], wantStats[i] = out, st
	}

	outs := make([]strings.Builder, len(queries))
	ws := make([]io.Writer, len(queries))
	for i := range outs {
		ws[i] = &outs[i]
	}
	results, err := RunAll(queries, strings.NewReader(doc), Options{}, ws...)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i := range queries {
		name := xmark.QueryNames[i]
		if results[i].Err != nil {
			t.Fatalf("%s: %v", name, results[i].Err)
		}
		if outs[i].String() != wantOut[i] {
			t.Errorf("%s: shared-scan output differs from single run", name)
		}
		if results[i].Stats != wantStats[i] {
			t.Errorf("%s: stats = %+v, want %+v", name, results[i].Stats, wantStats[i])
		}
	}
}

// TestRunAllConcurrent: many goroutines running shared-scan batches over
// the same prepared queries (plans are shared, sessions are not) must not
// race and must all produce the single-run outputs. Run under -race in CI.
func TestRunAllConcurrent(t *testing.T) {
	queries := prepareXmarkQueries(t)
	doc := xmarkTestDoc(t, 32<<10)

	want := make([]string, len(queries))
	for i, q := range queries {
		out, _, err := q.RunString(doc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs := make([]strings.Builder, len(queries))
			ws := make([]io.Writer, len(queries))
			for i := range outs {
				ws[i] = &outs[i]
			}
			results, err := RunAll(queries, strings.NewReader(doc), Options{}, ws...)
			if err != nil {
				errs <- err
				return
			}
			for i := range queries {
				if results[i].Err != nil {
					errs <- results[i].Err
					return
				}
				if outs[i].String() != want[i] {
					t.Errorf("%s: concurrent shared-scan output differs", xmark.QueryNames[i])
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

// TestRunAllValidation: argument errors are reported before any scan.
func TestRunAllValidation(t *testing.T) {
	queries := prepareXmarkQueries(t)[:1]
	if _, err := RunAll(queries, strings.NewReader("<site></site>"), Options{Engine: Naive}, io.Discard); err == nil {
		t.Error("baseline engine: want an error, got nil")
	}
	if _, err := RunAll(queries, strings.NewReader("<site></site>"), Options{}); err == nil {
		t.Error("writer count mismatch: want an error, got nil")
	}
}

// TestRunAllEmpty: an empty batch is a no-op, not an error.
func TestRunAllEmpty(t *testing.T) {
	results, err := RunAll(nil, strings.NewReader("ignored"), Options{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: results %v, err %v", results, err)
	}
}
