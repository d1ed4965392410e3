package flux_test

// The memory gate end to end: what admission charges each Figure 4
// query over real XMark documents, how one budget bounds a scan, and
// that every way out of the admission queue returns its counters to
// zero.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flux"
	"flux/internal/holdtest"
	"flux/internal/stream"
	"flux/internal/xmark"
)

// xmarkDocs memoizes generated XMark documents (seed 1) by size, so a
// test repeated with -count generates each once.
var xmarkDocs sync.Map

// writeXMark writes XMark seed 1 of about size bytes to dir/name.xml.
func writeXMark(t *testing.T, dir, name string, size int64) string {
	t.Helper()
	doc, ok := xmarkDocs.Load(size)
	if !ok {
		var buf bytes.Buffer
		if _, err := xmark.Generate(&buf, xmark.GenOptions{Scale: xmark.ScaleForBytes(size), Seed: 1}); err != nil {
			t.Fatal(err)
		}
		doc, _ = xmarkDocs.LoadOrStore(size, buf.Bytes())
	}
	path := filepath.Join(dir, name+".xml")
	if err := os.WriteFile(path, doc.([]byte), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestChargeIsExact: over one catalog holding XMark at 1 MB ("a") and
// 4 MB ("b"), each Figure 4 query is charged its static prediction
// until it has run on a document, then exactly the peak it buffered
// there — the Figure 4 flux column on "a" — and its prediction again
// after a Swap.
func TestChargeIsExact(t *testing.T) {
	dir := t.TempDir()
	cat := flux.NewCatalog(flux.CatalogOptions{})
	paths := map[string]string{
		"a": writeXMark(t, dir, "a", 1<<20),
		"b": writeXMark(t, dir, "b", 4<<20),
	}
	for name, path := range paths {
		if err := cat.Add(name, path, xmark.DTD); err != nil {
			t.Fatal(err)
		}
	}
	predicted := map[string]int64{"q1": 0, "q8": 12_672, "q11": 16_960, "q13": 0, "q20": 4_096}
	observed := map[string]map[string]int64{
		"a": {"q1": 0, "q8": 139_492, "q11": 59_745, "q13": 0, "q20": 702},
		"b": {"q8": 579_549, "q11": 237_299},
	}
	queries := make(map[string]*flux.Query)
	for _, qname := range xmark.QueryNames {
		q, err := cat.Prepare("a", xmark.Queries[qname])
		if err != nil {
			t.Fatalf("%s: %v", qname, err)
		}
		queries[qname] = q
	}
	checkCharges := func(stage, doc string, want func(qname string) (int64, bool)) {
		t.Helper()
		for _, qname := range xmark.QueryNames {
			if w, ok := want(qname); ok {
				if got := cat.Charge(doc, queries[qname]); got != w {
					t.Errorf("%s: %s on %s charged %d, want %d", stage, qname, doc, got, w)
				}
			}
		}
	}
	cold := func(qname string) (int64, bool) { return predicted[qname], true }
	for _, doc := range []string{"a", "b"} {
		checkCharges("cold", doc, cold)
	}

	ex, err := flux.NewExecutor(cat, flux.ExecutorOptions{Window: time.Millisecond, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"a", "b"} {
		ran := make(map[string]int64)
		for _, qname := range xmark.QueryNames {
			res, err := ex.ExecuteQueryContext(context.Background(), doc, queries[qname], io.Discard)
			if err != nil {
				t.Fatalf("%s on %s: %v", qname, doc, err)
			}
			ran[qname] = res.Stats.PeakBufferBytes
			if w, ok := observed[doc][qname]; ok && res.Stats.PeakBufferBytes != w {
				t.Errorf("%s on %s buffered %d, want %d", qname, doc, res.Stats.PeakBufferBytes, w)
			}
		}
		checkCharges("warm", doc, func(qname string) (int64, bool) { return ran[qname], true })
	}

	if err := cat.Swap("a", paths["a"]); err != nil {
		t.Fatal(err)
	}
	checkCharges("swapped", "a", cold)
	checkCharges("unswapped", "b", func(qname string) (int64, bool) {
		w, ok := observed["b"][qname]
		return w, ok
	})
}

// TestChargeBoundsScan: one budget bounds a scan. Two warmed q8s on the
// 1 MB document charge 139,492 bytes each, so under a budget from
// 139,492 up to 278,983 the second queues for admission and runs in a
// scan of its own, and 278,984 lets them share one. A query that waits
// for admission never fills the first one's batch, so the window of
// the cases that cannot share is short.
func TestChargeBoundsScan(t *testing.T) {
	path := writeXMark(t, t.TempDir(), "a", 1<<20)
	const q8peak = 139_492
	for _, tc := range []struct {
		budget int64
		scans  int64
		window time.Duration
	}{
		{q8peak, 2, 20 * time.Millisecond},
		{2*q8peak - 1, 2, 20 * time.Millisecond},
		{2 * q8peak, 1, time.Minute},
	} {
		cat := flux.NewCatalog(flux.CatalogOptions{MaxResidentBufferBytes: tc.budget})
		if err := cat.Add("a", path, xmark.DTD); err != nil {
			t.Fatal(err)
		}
		warm, err := flux.NewExecutor(cat, flux.ExecutorOptions{Window: time.Millisecond, MaxBatch: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.ExecuteContext(context.Background(), "a", xmark.Queries["q8"], io.Discard); err != nil {
			t.Fatal(err)
		}
		ex, err := flux.NewExecutor(cat, flux.ExecutorOptions{Window: tc.window, MaxBatch: 2})
		if err != nil {
			t.Fatal(err)
		}
		release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ex.ExecuteContext(context.Background(), "a", xmark.Queries["q8"], io.Discard); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		release()
		if st := ex.Stats()["a"]; st.Queries != 2 || st.Scans != tc.scans {
			t.Errorf("budget %d: stats = %+v, want 2 queries over %d scan(s)", tc.budget, st, tc.scans)
		}
		if st := cat.AdmissionStats(); st.Queued != tc.scans-1 {
			t.Errorf("budget %d: admission = %+v, want %d queued", tc.budget, st, tc.scans-1)
		}
	}
}

// TestAdmissionConservation: whichever way a query leaves the admission
// queue — a Subscribe whose context was canceled, a batch over the
// budget whose callers all leave while they queue, or a clean run —
// Waiting, Active and ResidentBufferBytes return to zero.
func TestAdmissionConservation(t *testing.T) {
	const dtd = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title,year)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`
	const doc = `<bib><book><title>FluX</title><year>2004</year></book><book><title>XMark</title><year>2002</year></book></bib>`
	const buffering = `<out> { for $b in /bib/book where $b/year = '2004' return {$b} } </out>`

	// setup returns a catalog whose budget is one cold buffering query's
	// charge, with the document registered both as a file and as a
	// stream.
	setup := func(t *testing.T) (*flux.Catalog, int64) {
		path := filepath.Join(t.TempDir(), "bib.xml")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := flux.Prepare(buffering, dtd)
		if err != nil {
			t.Fatal(err)
		}
		budget := q.BufferReport().PredictedPeakBytes
		cat := flux.NewCatalog(flux.CatalogOptions{MaxResidentBufferBytes: budget})
		if err := cat.Add("bib", path, dtd); err != nil {
			t.Fatal(err)
		}
		if err := cat.AddStream("live", dtd); err != nil {
			t.Fatal(err)
		}
		return cat, budget
	}
	// drained waits for every admission counter but the cumulative ones
	// to return to zero.
	drained := func(t *testing.T, cat *flux.Catalog) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := cat.AdmissionStats()
			if st.Waiting == 0 && st.Active == 0 && st.ResidentBufferBytes == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("admission never drained: %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// waiting polls until n queries queue.
	waiting := func(t *testing.T, cat *flux.Catalog, n int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for cat.AdmissionStats().Waiting != n {
			if time.Now().After(deadline) {
				t.Fatalf("waiting never reached %d: %+v", n, cat.AdmissionStats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("canceled-subscribe", func(t *testing.T) {
		cat, budget := setup(t)
		hub := stream.NewHub(cat, stream.Options{})
		defer hub.Close()
		hold, err := cat.Admit(context.Background(), budget)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := hub.Subscribe(ctx, "live", buffering, io.Discard, stream.PolicyBlock)
			errc <- err
		}()
		waiting(t, cat, 1)
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("Subscribe err = %v, want context.Canceled", err)
		}
		hold()
		drained(t, cat)
	})

	t.Run("split-batch-canceled-mid-queue", func(t *testing.T) {
		cat, budget := setup(t)
		ex, err := flux.NewExecutor(cat, flux.ExecutorOptions{Window: time.Minute, MaxBatch: 2})
		if err != nil {
			t.Fatal(err)
		}
		hold, err := cat.Admit(context.Background(), budget)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		errs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func() {
				_, err := ex.ExecuteContext(ctx, "bib", buffering, io.Discard)
				errs <- err
			}()
		}
		waiting(t, cat, 2) // both queue behind the holder
		cancel()
		for i := 0; i < 2; i++ {
			if err := <-errs; !errors.Is(err, context.Canceled) {
				t.Fatalf("caller err = %v, want context.Canceled", err)
			}
		}
		// The queue empties while the holder still holds the budget: a
		// caller that leaves takes its query out of it.
		waiting(t, cat, 0)
		hold()
		drained(t, cat)
		if st := ex.Stats()["bib"]; st.Scans != 0 || st.Canceled != 2 {
			t.Fatalf("doc stats = %+v, want no scan, 2 canceled", st)
		}
	})

	t.Run("clean", func(t *testing.T) {
		cat, _ := setup(t)
		ex, err := flux.NewExecutor(cat, flux.ExecutorOptions{Window: time.Millisecond, MaxBatch: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ex.ExecuteContext(context.Background(), "bib", buffering, io.Discard); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		drained(t, cat)
		if st := cat.AdmissionStats(); st.Admitted != ex.Stats()["bib"].Queries {
			t.Fatalf("admitted %d queries, executor ran %d", st.Admitted, ex.Stats()["bib"].Queries)
		}
	})
}
