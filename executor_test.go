package flux

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flux/internal/holdtest"
)

// newTestExecutor builds a catalog with one document and an executor
// with a deterministic batching setup.
func newTestExecutor(t *testing.T, maxBatch int, window time.Duration) (*Catalog, *Executor, string) {
	t.Helper()
	cat := NewCatalog(CatalogOptions{})
	docPath := writeTemp(t, "bib.xml", catDoc)
	if err := cat.Add("bib", docPath, catDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{Window: window, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	return cat, ex, docPath
}

// TestExecutorSingle: one query, dispatched at once, correct output and
// stats.
func TestExecutorSingle(t *testing.T) {
	_, ex, _ := newTestExecutor(t, 100, time.Millisecond)
	const q = `<out> { for $b in /bib/book return {$b/title} } </out>`
	want, _, err := mustPrepare(t, q).RunString(catDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res, err := ex.ExecuteContext(context.Background(), "bib", q, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("output = %q, want %q", sb.String(), want)
	}
	if res.BatchSize != 1 || res.Stats.Tokens == 0 {
		t.Fatalf("res = %+v", res)
	}
	st := ex.Stats()["bib"]
	if st.Queries != 1 || st.Scans != 1 || st.Shared != 0 {
		t.Fatalf("doc stats = %+v", st)
	}
}

func mustPrepare(t *testing.T, q string) *Query {
	t.Helper()
	p, err := Prepare(q, catDTD)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestExecutorBatches: with every processor held, concurrent executions
// against one document share a single scan when they fill MaxBatch.
func TestExecutorBatches(t *testing.T) {
	queries := []string{
		`<out> { for $b in /bib/book return {$b/title} } </out>`,
		`<out> { for $b in /bib/book where $b/year = '2004' return {$b} } </out>`,
		`<out> { for $b in /bib/book return <y> {$b/year} </y> } </out>`,
	}
	cat, ex, _ := newTestExecutor(t, len(queries), 30*time.Second)

	want := make([]string, len(queries))
	for i, q := range queries {
		out, _, err := mustPrepare(t, q).RunString(catDoc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)
	var wg sync.WaitGroup
	outs := make([]strings.Builder, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			res, err := ex.ExecuteContext(context.Background(), "bib", q, &outs[i])
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if res.BatchSize != len(queries) {
				t.Errorf("query %d: batch size %d, want %d", i, res.BatchSize, len(queries))
			}
		}(i, q)
	}
	wg.Wait()
	release()
	for i := range queries {
		if outs[i].String() != want[i] {
			t.Errorf("query %d: output %q, want %q", i, outs[i].String(), want[i])
		}
	}
	st := ex.Stats()["bib"]
	if st.Scans != 1 || st.Queries != int64(len(queries)) || st.PeakBatch != int64(len(queries)) {
		t.Fatalf("doc stats = %+v, want one shared scan", st)
	}
}

// TestExecutorPerDocumentBatching: documents batch independently — two
// documents, two scans, even within one window.
func TestExecutorPerDocumentBatching(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	if err := cat.Add("a", writeTemp(t, "a.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add("b", writeTemp(t, "b.xml", catDoc2), catDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{Window: time.Millisecond, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	const q = `<out> { for $b in /bib/book return {$b/title} } </out>`
	var a, b strings.Builder
	if _, err := ex.ExecuteContext(context.Background(), "a", q, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecuteContext(context.Background(), "b", q, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.String(), "FluX") || !strings.Contains(b.String(), "Galax") {
		t.Fatalf("outputs: a=%q b=%q", a.String(), b.String())
	}
	st := ex.Stats()
	if st["a"].Scans != 1 || st["b"].Scans != 1 {
		t.Fatalf("per-doc stats = %+v", st)
	}
}

// TestExecutorCancelDetachesSibling: two queries share a scan over a
// large document; one caller's context dies mid-stream. The canceled
// caller returns promptly with ctx.Err(), its writer is never touched
// again, and the surviving sibling still streams the full, correct
// result. This is the client-disconnect regression test.
func TestExecutorCancelDetachesSibling(t *testing.T) {
	// A document large enough that the scan is still in flight when the
	// cancellation lands.
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, "<book><title>vol %06d</title><year>2004</year></book>", i)
	}
	sb.WriteString("</bib>")
	bigDoc := sb.String()

	cat := NewCatalog(CatalogOptions{})
	docPath := filepath.Join(t.TempDir(), "big.xml")
	if err := os.WriteFile(docPath, []byte(bigDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add("big", docPath, catDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{Window: 30 * time.Second, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}

	const q = `<out> { for $b in /bib/book return {$b/title} } </out>`
	want, _, err := mustPrepare(t, q).RunString(bigDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Reference token count under the executor's own delivery policy
	// (selective fan-out): a solo, uncanceled execution of the same query
	// through an immediate-dispatch executor on the same catalog.
	exRef, err := NewExecutor(cat, ExecutorOptions{Window: time.Millisecond, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := exRef.ExecuteContext(context.Background(), "big", q, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	// The hanging client: its context dies once its output starts
	// flowing, which guarantees the shared scan is mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hw := &cancelOnWrite{cancel: cancel}

	release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)
	var wg sync.WaitGroup
	var survivor strings.Builder
	var survivorRes ExecResult
	var survivorErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		survivorRes, survivorErr = ex.ExecuteContext(context.Background(), "big", q, &survivor)
	}()

	var canceledErr error
	var writesAtReturn int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, canceledErr = ex.ExecuteContext(ctx, "big", q, hw)
		// Contract: once ExecuteContext returns, w is never written
		// again, even though the batch is still scanning.
		writesAtReturn = hw.writes.Load()
	}()
	wg.Wait()
	release()

	if !errors.Is(canceledErr, context.Canceled) {
		t.Fatalf("canceled caller: err = %v, want context.Canceled", canceledErr)
	}
	if got := hw.writes.Load(); got != writesAtReturn {
		t.Fatalf("canceled caller's writer written after return: %d writes at return, %d after batch end",
			writesAtReturn, got)
	}
	if survivorErr != nil {
		t.Fatalf("surviving caller: %v", survivorErr)
	}
	if survivor.String() != want {
		t.Fatalf("surviving caller's output corrupted: got %d bytes, want %d",
			survivor.Len(), len(want))
	}
	if survivorRes.Stats.Tokens != refRes.Stats.Tokens {
		t.Fatalf("survivor tokens = %d, want %d (must be delivered the whole document's relevant events)",
			survivorRes.Stats.Tokens, refRes.Stats.Tokens)
	}
	st := ex.Stats()["big"]
	if st.Canceled != 1 {
		t.Fatalf("canceled counter = %d, want 1 (stats %+v)", st.Canceled, st)
	}
}

// TestExecutorCancelBeforeDispatch: a context already done at submit
// time never joins a batch.
func TestExecutorCancelBeforeDispatch(t *testing.T) {
	_, ex, _ := newTestExecutor(t, 100, time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ex.ExecuteContext(ctx, "bib", `<out> { for $b in /bib/book return {$b/title} } </out>`, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := ex.Stats()["bib"]; st.Scans != 0 {
		t.Fatalf("pre-canceled request must not scan: %+v", st)
	}
}

// TestExecutorUnknownDoc: executing against an unregistered document is
// an immediate error.
func TestExecutorUnknownDoc(t *testing.T) {
	_, ex, _ := newTestExecutor(t, 100, time.Millisecond)
	_, err := ex.ExecuteContext(context.Background(), "nope", `<out>x</out>`, io.Discard)
	if !errors.Is(err, ErrDocNotFound) {
		t.Fatalf("err = %v, want ErrDocNotFound", err)
	}
}

// TestExecutorOptionValidation: nonsense options are rejected.
func TestExecutorOptionValidation(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	if _, err := NewExecutor(nil, ExecutorOptions{}); err == nil {
		t.Error("nil catalog must be rejected")
	}
	if _, err := NewExecutor(cat, ExecutorOptions{Window: -time.Second}); err == nil {
		t.Error("negative window must be rejected")
	}
	if _, err := NewExecutor(cat, ExecutorOptions{MaxBatch: -1}); err == nil {
		t.Error("negative max batch must be rejected")
	}
}

// cancelOnWrite fires its cancel func on the first write and counts
// every write it receives.
type cancelOnWrite struct {
	cancel context.CancelFunc
	once   sync.Once
	writes atomic.Int64
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.once.Do(c.cancel)
	return len(p), nil
}

// TestExecutorFillingCallerCancels: the request that fills a batch to
// MaxBatch must not run the scan on its own goroutine's critical path —
// its context must still be able to unblock it mid-scan. With
// MaxBatch=1 every request is the filling request, making this the
// regression test for inline dispatch.
func TestExecutorFillingCallerCancels(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, "<book><title>vol %06d</title><year>2004</year></book>", i)
	}
	sb.WriteString("</bib>")
	bigDoc := sb.String()

	cat := NewCatalog(CatalogOptions{})
	docPath := filepath.Join(t.TempDir(), "big.xml")
	if err := os.WriteFile(docPath, []byte(bigDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add("big", docPath, catDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{Window: 30 * time.Second, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hw := &cancelOnWrite{cancel: cancel}
	_, err = ex.ExecuteContext(ctx, "big", `<out> { for $b in /bib/book return {$b/title} } </out>`, hw)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (filling caller must observe its ctx mid-scan)", err)
	}
}

// --- dispatch rule -------------------------------------------------------

// waitHeld polls until ex holds exactly n requests.
func waitHeld(t *testing.T, ex *Executor, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ex.held.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("executor holds %d requests, want %d", ex.held.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitGathering polls until doc has an open batch.
func waitGathering(t *testing.T, ex *Executor, doc string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ex.mu.Lock()
		open := ex.pending[doc] != nil
		ex.mu.Unlock()
		if open {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no batch gathering for %q", doc)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorDispatchAtOnce: a lone request does not wait out the
// window; with a processor free it dispatches at once, alone.
func TestExecutorDispatchAtOnce(t *testing.T) {
	_, ex, _ := newTestExecutor(t, 100, time.Minute)
	start := time.Now()
	res, err := ex.ExecuteContext(context.Background(), "bib", streamingQuery, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("lone request took %s under a one-minute window", d)
	}
	if res.BatchSize != 1 {
		t.Errorf("batch size = %d, want 1", res.BatchSize)
	}
	waitHeld(t, ex, 0)
}

// TestExecutorDispatchBoundary: a request dispatches alone while the
// Executor holds at most GOMAXPROCS requests, itself included; one
// more request than that gathers, and N such requests leave as one
// batch on MaxBatch.
func TestExecutorDispatchBoundary(t *testing.T) {
	const n = 3
	cat, ex, _ := newTestExecutor(t, n, time.Minute)
	procs := runtime.GOMAXPROCS(0)
	release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)
	waitHeld(t, ex, int64(procs))

	// One processor more: the next request is the last one that fits.
	runtime.GOMAXPROCS(procs + 1)
	res, err := ex.ExecuteContext(context.Background(), "bib", streamingQuery, io.Discard)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 1 {
		t.Fatalf("request at the boundary: batch size %d, want 1", res.BatchSize)
	}

	var wg sync.WaitGroup
	sizes := make([]int, n)
	for i := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ex.ExecuteContext(context.Background(), "bib", streamingQuery, io.Discard)
			if err != nil {
				t.Error(err)
			}
			sizes[i] = res.BatchSize
		}()
		if i == 0 {
			waitGathering(t, ex, "bib")
		}
	}
	wg.Wait()
	release()
	for i, got := range sizes {
		if got != n {
			t.Errorf("request %d: batch size %d, want %d", i, got, n)
		}
	}
	if st := ex.Stats()["bib"]; st.Scans != 2 || st.PeakBatch != n {
		t.Errorf("doc stats = %+v, want one solo scan and one batch of %d", st, n)
	}
	waitHeld(t, ex, 0)
}

// TestExecutorDispatchCountDrains: the Executor's count of held
// requests returns to zero whichever way a request leaves — canceled
// while its batch gathers, run in a batch the budget split across
// scans, or failed with its scan — and a request canceled while it
// queues for admission never raises it.
func TestExecutorDispatchCountDrains(t *testing.T) {
	// budgeted returns an executor over a catalog whose budget is one
	// cold buffering query's charge.
	budgeted := func(t *testing.T, window time.Duration) (*Catalog, *Executor) {
		budget := mustPrepare(t, bufferingQuery).BufferReport().PredictedPeakBytes
		cat := NewCatalog(CatalogOptions{MaxResidentBufferBytes: budget})
		if err := cat.Add("bib", writeTemp(t, "bib.xml", catDoc), catDTD); err != nil {
			t.Fatal(err)
		}
		ex, err := NewExecutor(cat, ExecutorOptions{Window: window, MaxBatch: 2})
		if err != nil {
			t.Fatal(err)
		}
		return cat, ex
	}

	t.Run("canceled-while-gathering", func(t *testing.T) {
		cat, ex, _ := newTestExecutor(t, 100, 50*time.Millisecond)
		release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := ex.ExecuteContext(ctx, "bib", streamingQuery, io.Discard)
			errc <- err
		}()
		waitGathering(t, ex, "bib")
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		release()
		waitHeld(t, ex, 0)
		if st := ex.Stats()["bib"]; st.Scans != 0 || st.Canceled != 1 {
			t.Errorf("doc stats = %+v, want no scan and 1 canceled", st)
		}
	})

	t.Run("dropped-in-admission", func(t *testing.T) {
		cat, ex := budgeted(t, time.Minute)
		hold := admit(t, cat, cat.adm.maxBytes)
		ctx, cancel := context.WithCancel(context.Background())
		errs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func() {
				_, err := ex.ExecuteContext(ctx, "bib", bufferingQuery, io.Discard)
				errs <- err
			}()
		}
		waitWaiting(t, cat, 2)
		if n := ex.held.Load(); n != 0 {
			t.Fatalf("executor holds %d requests queued for admission, want 0", n)
		}
		cancel()
		for i := 0; i < 2; i++ {
			if err := <-errs; !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		}
		waitHeld(t, ex, 0)
		hold()
		if st := ex.Stats()["bib"]; st.Queries != 2 || st.Canceled != 2 || st.Scans != 0 {
			t.Errorf("doc stats = %+v, want 2 canceled queries and no scan", st)
		}
	})

	t.Run("split", func(t *testing.T) {
		// The second request queues for admission until the first one's
		// scan ends, so it can never fill the batch: a short window.
		cat, ex := budgeted(t, 20*time.Millisecond)
		release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ex.ExecuteContext(context.Background(), "bib", bufferingQuery, io.Discard); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		release()
		waitHeld(t, ex, 0)
		if st := ex.Stats()["bib"]; st.Scans != 2 || st.PeakBatch != 1 {
			t.Errorf("doc stats = %+v, want 2 scans of one query each", st)
		}
	})

	t.Run("failed-scan", func(t *testing.T) {
		cat, ex, _ := newTestExecutor(t, 100, 50*time.Millisecond)
		release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)
		errc := make(chan error, 1)
		go func() {
			_, err := ex.ExecuteContext(context.Background(), "bib", streamingQuery, io.Discard)
			errc <- err
		}()
		waitGathering(t, ex, "bib")
		if err := cat.Remove("bib"); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; !errors.Is(err, ErrDocNotFound) {
			t.Fatalf("err = %v, want ErrDocNotFound", err)
		}
		release()
		waitHeld(t, ex, 0)
	})
}

// --- cost-based scheduling ----------------------------------------------

// bufferingQuery buffers each book subtree (predicted peak > 0); the
// where-clause forces a marked buffer node under the book scope.
const bufferingQuery = `<out> { for $b in /bib/book where $b/year = '2004' return {$b} } </out>`

// streamingQuery stream-copies each book (predicted peak 0).
const streamingQuery = `<out> { for $b in /bib/book return {$b} } </out>`

// TestPredictedPeakBytes: the static cost model orders plans sensibly —
// streaming plans predict zero, buffering plans predict more.
func TestPredictedPeakBytes(t *testing.T) {
	s := mustPrepare(t, streamingQuery).BufferReport()
	b := mustPrepare(t, bufferingQuery).BufferReport()
	if !s.Streaming || s.PredictedPeakBytes != 0 {
		t.Errorf("streaming query: report %+v, want Streaming with 0 predicted bytes", s)
	}
	if b.Streaming || b.PredictedPeakBytes <= 0 {
		t.Errorf("buffering query: report %+v, want buffering with positive predicted bytes", b)
	}
	if len(s.Signature) == 0 || len(b.Signature) == 0 {
		t.Errorf("signatures must be non-empty: %v / %v", s.Signature, b.Signature)
	}
}

// TestExecutorBatchSplit: concurrent queries whose summed charges
// exceed the catalog's budget never share a scan — the one that does
// not fit queues for admission and runs after the first — and every
// query still gets its full, correct result.
func TestExecutorBatchSplit(t *testing.T) {
	// Cold, each buffering query is charged its prediction: two of them
	// cannot share a scan under a budget of one. The second waits for
	// admission, so it never fills the first's batch: a short window.
	budget := mustPrepare(t, bufferingQuery).BufferReport().PredictedPeakBytes
	cat := NewCatalog(CatalogOptions{MaxResidentBufferBytes: budget})
	docPath := writeTemp(t, "bib.xml", catDoc)
	if err := cat.Add("bib", docPath, catDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{
		Window:   20 * time.Millisecond,
		MaxBatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	want, _, err := mustPrepare(t, bufferingQuery).RunString(catDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}

	release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)
	var wg sync.WaitGroup
	outs := make([]strings.Builder, 2)
	sizes := make([]int, 2)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := ex.ExecuteContext(context.Background(), "bib", bufferingQuery, &outs[i])
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			sizes[i] = res.BatchSize
		}(i)
	}
	wg.Wait()
	release()
	for i := range outs {
		if outs[i].String() != want {
			t.Errorf("query %d output = %q, want %q", i, outs[i].String(), want)
		}
		if sizes[i] != 1 {
			t.Errorf("query %d batch size = %d, want 1 (over the budget together)", i, sizes[i])
		}
	}
	if st := ex.Stats()["bib"]; st.Scans != 2 {
		t.Fatalf("doc stats = %+v, want 2 scans", st)
	}
	if st := cat.AdmissionStats(); st.Queued != 1 || st.Waiting != 0 || st.Active != 0 {
		t.Fatalf("admission stats = %+v, want 1 queued, none waiting or active", st)
	}
}

// TestExecutorBudgetKeepsStreamingTogether: streaming queries are
// charged zero bytes, so even a tight budget never keeps them from
// sharing a batch.
func TestExecutorBudgetKeepsStreamingTogether(t *testing.T) {
	cat := NewCatalog(CatalogOptions{MaxResidentBufferBytes: 1})
	if err := cat.Add("bib", writeTemp(t, "bib.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{
		Window:   30 * time.Second,
		MaxBatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ex.ExecuteContext(context.Background(), "bib", streamingQuery, io.Discard)
			if err != nil {
				t.Error(err)
				return
			}
			if res.BatchSize != 2 {
				t.Errorf("batch size = %d, want 2 (streaming queries share)", res.BatchSize)
			}
		}()
	}
	wg.Wait()
	release()
	st := ex.Stats()["bib"]
	if st.Scans != 1 {
		t.Fatalf("doc stats = %+v, want one shared scan", st)
	}
}

// TestExecutorSelectiveSkipsEvents: a narrow query against a document
// with irrelevant regions is delivered fewer events than the all-fanout
// shared scan (RunAll) delivers, and the skip shows up in
// DocStats.EventsSkipped.
func TestExecutorSelectiveSkipsEvents(t *testing.T) {
	const q = `<out> { for $b in /bib/book return <t> {$b/title} </t> } </out>`
	cat := NewCatalog(CatalogOptions{})
	if err := cat.Add("bib", writeTemp(t, "bib.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{Window: time.Millisecond, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res, err := ex.ExecuteContext(context.Background(), "bib", q, &sb)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	all, err := RunAll([]*Query{mustPrepare(t, q)}, strings.NewReader(catDoc), Options{}, &want)
	if err != nil || all[0].Err != nil {
		t.Fatal(err, all[0].Err)
	}
	if sb.String() != want.String() {
		t.Fatalf("output = %q, want %q", sb.String(), want.String())
	}
	if res.Stats.Tokens >= all[0].Stats.Tokens {
		t.Errorf("executor delivered %d events, all-fanout %d; want strictly fewer",
			res.Stats.Tokens, all[0].Stats.Tokens)
	}
	if st := ex.Stats()["bib"]; st.EventsSkipped == 0 {
		t.Errorf("EventsSkipped = 0, want > 0 (stats %+v)", st)
	}
}

// TestExecutorAutomatonSharedAcrossDocs: a merged automaton depends
// only on its routing groups, so the first scan of a query over a second
// document with the same DTD reuses the machine the first document's
// scan compiled, and a swap of the document's file keeps it.
func TestExecutorAutomatonSharedAcrossDocs(t *testing.T) {
	const q = `<out> { for $b in /bib/book return {$b/title} } </out>`
	cat := NewCatalog(CatalogOptions{})
	for _, name := range []string{"a", "b"} {
		if err := cat.Add(name, writeTemp(t, name+".xml", catDoc), catDTD); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := NewExecutor(cat, ExecutorOptions{Window: time.Millisecond, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(doc string) {
		t.Helper()
		if _, err := ex.ExecuteContext(context.Background(), doc, q, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	run("a")
	run("b")
	if st := ex.Stats()["b"]; st.Scans != 1 || st.AutomatonHits != 1 {
		t.Fatalf("first scan of b: stats %+v, want 1 scan reusing a's automaton", st)
	}
	if err := cat.Swap("b", writeTemp(t, "b2.xml", catDoc)); err != nil {
		t.Fatal(err)
	}
	run("b")
	if st := ex.Stats()["b"]; st.Scans != 2 || st.AutomatonHits != 2 {
		t.Fatalf("scan after swap: stats %+v, want 2 scans, both automaton hits", st)
	}
}

// TestExecutorAdmissionQueues: a buffering query submitted while the
// catalog's byte budget is held queues — observable via AdmissionStats
// — and starts only once the budget is released; its caller never sees
// its own finished query still counted active.
func TestExecutorAdmissionQueues(t *testing.T) {
	budget := mustPrepare(t, bufferingQuery).BufferReport().PredictedPeakBytes
	cat := NewCatalog(CatalogOptions{MaxResidentBufferBytes: budget})
	if err := cat.Add("bib", writeTemp(t, "bib.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{Window: time.Millisecond, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Hold the whole budget.
	release := admit(t, cat, budget)

	done := make(chan error, 1)
	go func() {
		_, err := ex.ExecuteContext(context.Background(), "bib", bufferingQuery, io.Discard)
		done <- err
	}()

	// The scan must queue, not start.
	waitWaiting(t, cat, 1)
	select {
	case err := <-done:
		t.Fatalf("scan ran while over the byte budget (err=%v)", err)
	default:
	}

	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := cat.AdmissionStats()
	if st.Queued != 1 || st.Waiting != 0 || st.Active != 0 {
		t.Fatalf("admission stats = %+v, want 1 queued, none waiting or active", st)
	}
}

// gatedWriter blocks every write until open is closed, holding the
// scan that writes to it — and with it its queries' admitted charges.
type gatedWriter struct {
	open <-chan struct{}
	sb   strings.Builder
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.open
	return g.sb.Write(p)
}

// TestExecutorBudgetBurst: the bound under a burst. With a budget of
// two buffering queries' charges, eight buffering callers at once
// leave exactly two resident and six queued; four streaming callers
// sent while those two are held mid-scan finish without queueing; a
// sampler never sees the resident charges over the budget; every
// output equals the query's solo run; and every gauge returns to zero.
func TestExecutorBudgetBurst(t *testing.T) {
	const nBuf, nStream = 8, 4
	buffering, streaming := mustPrepare(t, bufferingQuery), mustPrepare(t, streamingQuery)
	solo := func(q *Query) string {
		var sb strings.Builder
		if _, err := q.Run(strings.NewReader(catDoc), &sb, Options{}); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	wantBuf, wantStream := solo(buffering), solo(streaming)

	charge := buffering.plan.PredictedPeakBytes()
	budget := 2 * charge
	cat := NewCatalog(CatalogOptions{MaxResidentBufferBytes: budget})
	if err := cat.Add("bib", writeTemp(t, "bib.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	if got := cat.Charge("bib", buffering); got != charge {
		t.Fatalf("cold charge = %d, want the prediction %d", got, charge)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{Window: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	stopSampling := make(chan struct{})
	peak := make(chan int64)
	go func() {
		var max int64
		for {
			if b := cat.AdmissionStats().ResidentBufferBytes; b > max {
				max = b
			}
			select {
			case <-stopSampling:
				peak <- max
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()

	open := make(chan struct{})
	bufOuts := make([]*gatedWriter, nBuf)
	var wg sync.WaitGroup
	for i := range bufOuts {
		bufOuts[i] = &gatedWriter{open: open}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ex.ExecuteContext(context.Background(), "bib", bufferingQuery, bufOuts[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	// Two buffering queries fill the budget and hold it mid-scan; the
	// other six queue for admission, and no batch is left gathering
	// that a streaming caller could join.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := cat.AdmissionStats()
		ex.mu.Lock()
		gathering := ex.pending["bib"] != nil
		ex.mu.Unlock()
		if st.Active == 2 && st.Waiting == nBuf-2 && !gathering {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the burst never settled at two resident, six waiting: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	streamOuts := make([]strings.Builder, nStream)
	var swg sync.WaitGroup
	for i := range streamOuts {
		swg.Add(1)
		go func() {
			defer swg.Done()
			if _, err := ex.ExecuteContext(context.Background(), "bib", streamingQuery, &streamOuts[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	swg.Wait()
	if st := cat.AdmissionStats(); st.Queued != nBuf-2 || st.Waiting != nBuf-2 {
		t.Errorf("admission after the streaming callers = %+v, want only the six buffering queries queued", st)
	}
	for i := range streamOuts {
		if got := streamOuts[i].String(); got != wantStream {
			t.Errorf("streaming caller %d output = %q, want %q", i, got, wantStream)
		}
	}

	close(open)
	wg.Wait()
	close(stopSampling)
	if max := <-peak; max > budget {
		t.Errorf("resident charges reached %d, over the budget %d", max, budget)
	}
	for i, w := range bufOuts {
		if got := w.sb.String(); got != wantBuf {
			t.Errorf("buffering caller %d output = %q, want %q", i, got, wantBuf)
		}
	}
	waitHeld(t, ex, 0)
	if st := cat.AdmissionStats(); st.Waiting != 0 || st.Active != 0 || st.ResidentBufferBytes != 0 {
		t.Errorf("admission after the burst = %+v, want nothing waiting or resident", st)
	}
}

// heldWriter holds its first Write until release closes, and counts
// the writes that begin after its caller has returned.
type heldWriter struct {
	entered, release chan struct{}
	once             sync.Once
	returned         atomic.Bool
	late             atomic.Int64
}

func (h *heldWriter) Write(p []byte) (int, error) {
	if h.returned.Load() {
		h.late.Add(1)
	}
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
	return len(p), nil
}

// TestExecuteContextCancelWaitsForWrite: a canceled ExecuteContext does
// not return while a write to its writer is in progress; it returns
// ctx.Err() once that write is released, and the writer receives no
// write after the return.
func TestExecuteContextCancelWaitsForWrite(t *testing.T) {
	// Output enough for many writes, so the scan keeps writing after the
	// held one is released.
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "<book><title>vol %06d</title><year>2004</year></book>", i)
	}
	sb.WriteString("</bib>")
	cat := NewCatalog(CatalogOptions{})
	if err := cat.Add("bib", writeTemp(t, "big.xml", sb.String()), catDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{Window: time.Millisecond, MaxBatch: 100})
	if err != nil {
		t.Fatal(err)
	}
	w := &heldWriter{entered: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := ex.ExecuteContext(ctx, "bib", `<out> { for $b in /bib/book return {$b/title} } </out>`, w)
		w.returned.Store(true)
		errc <- err
	}()
	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the query never wrote")
	}
	cancel()
	select {
	case err := <-errc:
		t.Fatalf("ExecuteContext returned (%v) while a write to w was held", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(w.release)
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ExecuteContext did not return once the write was released")
	}
	waitHeld(t, ex, 0) // the scan has ended
	if n := w.late.Load(); n != 0 {
		t.Fatalf("%d writes reached w after ExecuteContext returned", n)
	}
}

// TestServerStatsKeepsRetiredDocs: ServerStats lists every registered
// document, and a document removed after it served keeps its entry and
// cumulative counters.
func TestServerStatsKeepsRetiredDocs(t *testing.T) {
	cat, ex, docPath := newTestExecutor(t, 100, time.Millisecond)
	if err := cat.Add("idle", docPath, catDTD); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecuteContext(context.Background(), "bib", `<out> { for $b in /bib/book return {$b/title} } </out>`, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := cat.Remove("bib"); err != nil {
		t.Fatal(err)
	}
	docs := ex.ServerStats().Docs
	if st, ok := docs["bib"]; !ok || st.Queries != 1 || st.Scans != 1 {
		t.Fatalf("retired document's stats = %+v (present %v), want its one query and scan", st, ok)
	}
	if st, ok := docs["idle"]; !ok || st != (DocStats{}) {
		t.Fatalf("unserved document's stats = %+v (present %v), want a zero entry", st, ok)
	}
}
