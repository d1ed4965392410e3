package flux

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const catDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title,year)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

const catDoc = `<bib>` +
	`<book><title>FluX</title><year>2004</year></book>` +
	`<book><title>XMark</title><year>2002</year></book>` +
	`</bib>`

const catDoc2 = `<bib>` +
	`<book><title>Galax</title><year>2004</year></book>` +
	`</bib>`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCatalogAddLookupRemove(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	docPath := writeTemp(t, "bib.xml", catDoc)

	if err := cat.Add("bib", docPath, catDTD); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add("bib", docPath, catDTD); !errors.Is(err, ErrDocExists) {
		t.Fatalf("duplicate Add: err = %v, want ErrDocExists", err)
	}
	if err := cat.Add("ghost", filepath.Join(t.TempDir(), "missing.xml"), catDTD); err == nil {
		t.Fatal("Add with missing file must fail")
	}
	if got := cat.Docs(); len(got) != 1 || got[0] != "bib" {
		t.Fatalf("Docs() = %v, want [bib]", got)
	}
	info, err := cat.Info("bib")
	if err != nil || info.Path != docPath || info.Swaps != 0 {
		t.Fatalf("Info = %+v, %v", info, err)
	}
	if err := cat.Remove("bib"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Remove("bib"); !errors.Is(err, ErrDocNotFound) {
		t.Fatalf("double Remove: err = %v, want ErrDocNotFound", err)
	}
	if n := len(cat.schemas); n != 0 {
		t.Fatalf("schemas after removing the last referencing doc = %d, want 0", n)
	}
	if _, err := cat.Prepare("bib", "{ for $b in /bib/book return {$b/title} }"); !errors.Is(err, ErrDocNotFound) {
		t.Fatalf("Prepare on removed doc: err = %v, want ErrDocNotFound", err)
	}
}

// TestCatalogLazySchema: a bad DTD is accepted at Add time (lazy
// parsing) and surfaces on first Prepare — once, cached, for every
// subsequent use.
func TestCatalogLazySchema(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	docPath := writeTemp(t, "bib.xml", catDoc)
	if err := cat.Add("bad", docPath, "<!ELEMENT "); err != nil {
		t.Fatalf("Add must not parse the DTD eagerly: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cat.Prepare("bad", "{ for $b in /bib/book return {$b} }"); err == nil {
			t.Fatal("Prepare against a malformed DTD must fail")
		}
	}
}

// TestCatalogQueryCache: repeated Prepare hits the cache and returns the
// identical compiled query; distinct texts miss; the LRU bound evicts.
func TestCatalogQueryCache(t *testing.T) {
	cat := NewCatalog(CatalogOptions{QueryCacheCap: 2})
	docPath := writeTemp(t, "bib.xml", catDoc)
	if err := cat.Add("bib", docPath, catDTD); err != nil {
		t.Fatal(err)
	}

	const q1 = `<out> { for $b in /bib/book return {$b/title} } </out>`
	first, err := cat.Prepare("bib", q1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cat.Prepare("bib", q1)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("repeated Prepare must return the cached compiled query")
	}
	st := cat.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("after one repeat: stats = %+v", st)
	}

	// Two more distinct queries overflow cap=2 and evict the LRU entry.
	for _, q := range []string{
		`<out> { for $b in /bib/book return {$b/year} } </out>`,
		`<out> { for $b in /bib/book return {$b} } </out>`,
	} {
		if _, err := cat.Prepare("bib", q); err != nil {
			t.Fatal(err)
		}
	}
	st = cat.CacheStats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("after overflow: stats = %+v", st)
	}

	// The evicted query (q1, least recently used) recompiles: a miss.
	misses := st.Misses
	if _, err := cat.Prepare("bib", q1); err != nil {
		t.Fatal(err)
	}
	if st = cat.CacheStats(); st.Misses != misses+1 {
		t.Fatalf("evicted query must miss: stats = %+v", st)
	}

	// The cached query still runs correctly.
	out, _, err := again.RunString(catDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<title>FluX</title>") {
		t.Fatalf("cached query output = %q", out)
	}
}

// TestCatalogSharedSchema: documents registered with identical DTD text
// share one schema, so compiled queries are shared across them too.
func TestCatalogSharedSchema(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	if err := cat.Add("a", writeTemp(t, "a.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add("b", writeTemp(t, "b.xml", catDoc2), catDTD); err != nil {
		t.Fatal(err)
	}
	const q = `<out> { for $b in /bib/book return {$b/title} } </out>`
	qa, err := cat.Prepare("a", q)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := cat.Prepare("b", q)
	if err != nil {
		t.Fatal(err)
	}
	if qa != qb {
		t.Fatal("documents with identical DTD text must share compiled queries")
	}
	if st := cat.CacheStats(); st.Hits != 1 {
		t.Fatalf("cross-document Prepare must hit: %+v", st)
	}
}

// TestCatalogSwap: Swap repoints the name atomically; a reader opened
// before the swap still reads the old file; a bad path leaves the old
// binding untouched.
func TestCatalogSwap(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	oldPath := writeTemp(t, "old.xml", catDoc)
	newPath := writeTemp(t, "new.xml", catDoc2)
	if err := cat.Add("bib", oldPath, catDTD); err != nil {
		t.Fatal(err)
	}

	before, err := cat.Open("bib")
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()

	if err := cat.Swap("bib", filepath.Join(t.TempDir(), "missing.xml")); err == nil {
		t.Fatal("Swap to a missing file must fail")
	}
	if info, _ := cat.Info("bib"); info.Path != oldPath || info.Swaps != 0 {
		t.Fatalf("failed swap must not change the binding: %+v", info)
	}
	if err := cat.Swap("bib", newPath); err != nil {
		t.Fatal(err)
	}
	if info, _ := cat.Info("bib"); info.Path != newPath || info.Swaps != 1 {
		t.Fatalf("after swap: %+v", info)
	}

	// The pre-swap handle still serves the old content.
	oldContent, err := io.ReadAll(before)
	if err != nil || string(oldContent) != catDoc {
		t.Fatalf("pre-swap reader must see the old file: %q, %v", oldContent, err)
	}
	after, err := cat.Open("bib")
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	newContent, err := io.ReadAll(after)
	if err != nil || string(newContent) != catDoc2 {
		t.Fatalf("post-swap reader must see the new file: %q, %v", newContent, err)
	}

	if err := cat.Swap("nope", newPath); !errors.Is(err, ErrDocNotFound) {
		t.Fatalf("Swap of unknown doc: err = %v, want ErrDocNotFound", err)
	}
}

// admit reserves bytes with a background context; the test helpers'
// waits never cancel.
func admit(t *testing.T, cat *Catalog, bytes int64) func() {
	t.Helper()
	rel, err := cat.Admit(context.Background(), bytes)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// waitWaiting polls until n queries are queued for admission.
func waitWaiting(t *testing.T, cat *Catalog, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cat.AdmissionStats().Waiting != n {
		if time.Now().After(deadline) {
			t.Fatalf("waiting never reached %d: %+v", n, cat.AdmissionStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmitByteBudget: the resident-bytes bound queues a query that
// would overflow it and admits it once capacity frees; an oversized
// query is admitted only when nothing else is resident.
func TestAdmitByteBudget(t *testing.T) {
	cat := NewCatalog(CatalogOptions{MaxResidentBufferBytes: 100})

	relA := admit(t, cat, 60)
	admitted := make(chan func(), 1)
	go func() { admitted <- admit(t, cat, 60) }()

	waitWaiting(t, cat, 1)
	select {
	case <-admitted:
		t.Fatal("second query admitted while over the byte budget")
	default:
	}

	relA()
	relB := <-admitted
	st := cat.AdmissionStats()
	if st.Active != 1 || st.ResidentBufferBytes != 60 || st.Queued != 1 {
		t.Fatalf("admission stats = %+v, want one active 60-byte query after one queued wait", st)
	}
	relB()
	relB() // double release must be safe (sync.Once)

	// Oversized: a charge over the whole budget still admits when idle.
	relBig := admit(t, cat, 1000)
	if st := cat.AdmissionStats(); st.Active != 1 || st.ResidentBufferBytes != 1000 {
		t.Fatalf("oversized query not admitted when idle: %+v", st)
	}
	relBig()
	if st := cat.AdmissionStats(); st.Active != 0 || st.ResidentBufferBytes != 0 {
		t.Fatalf("release did not drain: %+v", st)
	}
}

// TestAdmitUnlimited: with no budget configured, Admit never
// blocks and only maintains counters.
func TestAdmitUnlimited(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	var releases []func()
	for i := 0; i < 8; i++ {
		releases = append(releases, admit(t, cat, 1<<40))
	}
	st := cat.AdmissionStats()
	if st.Active != 8 || st.Queued != 0 {
		t.Fatalf("admission stats = %+v, want 8 active, none queued", st)
	}
	for _, r := range releases {
		r()
	}
	if st := cat.AdmissionStats(); st.Active != 0 || st.Admitted != 8 {
		t.Fatalf("admission stats = %+v, want drained with 8 admitted", st)
	}
}

// TestAdmitNoBargeFIFO: a query charging more than the whole byte
// budget cannot be starved — byte-consuming newcomers queue behind it
// instead of barging, so capacity drains to the oversized waiter; a
// zero-charge query still passes freely.
func TestAdmitNoBargeFIFO(t *testing.T) {
	cat := NewCatalog(CatalogOptions{MaxResidentBufferBytes: 100})

	relA := admit(t, cat, 60)

	order := make(chan string, 2)
	go func() {
		rel := admit(t, cat, 1000) // oversized: needs bytes == 0
		order <- "big"
		rel()
	}()
	waitWaiting(t, cat, 1)

	// A byte-consuming newcomer must queue behind the oversized waiter
	// even though it would fit right now (60+30 <= 100): no barging.
	go func() {
		rel := admit(t, cat, 30)
		order <- "c"
		rel()
	}()
	waitWaiting(t, cat, 2)

	// A zero-charge query does not conflict and is admitted immediately.
	relZero := admit(t, cat, 0)
	relZero()

	// Releasing the first query drains the queue in FIFO order: the
	// oversized query runs (alone), then the 30-byte query.
	relA()
	if got := <-order; got != "big" {
		t.Fatalf("first admitted after release = %q, want the oversized waiter", got)
	}
	if got := <-order; got != "c" {
		t.Fatalf("second admitted = %q, want the queued 30-byte query", got)
	}
}

// TestAdmitZeroCostNeverByteBlocked: a fully streaming query (charge
// 0) adds nothing to the resident total, so the byte budget never
// queues it — even while an oversized query holds the whole budget.
func TestAdmitZeroCostNeverByteBlocked(t *testing.T) {
	cat := NewCatalog(CatalogOptions{MaxResidentBufferBytes: 100})
	relBig := admit(t, cat, 1000) // oversized, admitted while idle
	relZero := admit(t, cat, 0)   // must not wait behind it
	st := cat.AdmissionStats()
	if st.Active != 2 || st.Queued != 0 {
		t.Fatalf("admission stats = %+v, want both active with none queued", st)
	}
	relZero()
	relBig()
}

// TestAdmitZeroCostSameDocPassesByteWaiter: a zero-charge query is
// admitted immediately even when an older byte-blocked waiter is queued
// — passing it takes no capacity the waiter needs.
func TestAdmitZeroCostSameDocPassesByteWaiter(t *testing.T) {
	cat := NewCatalog(CatalogOptions{MaxResidentBufferBytes: 100})
	relA := admit(t, cat, 60)
	blocked := make(chan func(), 1)
	go func() { blocked <- admit(t, cat, 60) }()
	waitWaiting(t, cat, 1)
	relZero := admit(t, cat, 0) // must not queue behind the byte waiter
	if st := cat.AdmissionStats(); st.Active != 2 || st.Waiting != 1 {
		t.Fatalf("admission stats = %+v, want zero-charge admitted past the byte waiter", st)
	}
	relZero()
	relA()
	rel := <-blocked
	rel()
}

// TestAdmitCanceledWaiterLeaves: a waiter whose context ends leaves
// the queue with ctx.Err() and nothing reserved, and the younger waiter
// it was blocking is admitted at once.
func TestAdmitCanceledWaiterLeaves(t *testing.T) {
	cat := NewCatalog(CatalogOptions{MaxResidentBufferBytes: 100})
	relA := admit(t, cat, 60)
	defer relA()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := cat.Admit(ctx, 1000) // oversized: blocks the next one
		errc <- err
	}()
	waitWaiting(t, cat, 1)
	admitted := make(chan func(), 1)
	go func() { admitted <- admit(t, cat, 30) }()
	waitWaiting(t, cat, 2)

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want context.Canceled", err)
	}
	rel := <-admitted // 60+30 fits once the oversized waiter is gone
	if st := cat.AdmissionStats(); st.Waiting != 0 || st.Active != 2 || st.ResidentBufferBytes != 90 {
		t.Fatalf("admission stats = %+v, want the 60- and 30-byte queries resident, none waiting", st)
	}
	rel()
}

// TestChargeIsLargestObservedPeak: a plan is charged its static
// prediction until a run of its signature completes on the document,
// then the largest peak recorded — a smaller later observation does not
// lower it, a larger one raises it, and an observed zero is exact too.
func TestChargeIsLargestObservedPeak(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	if err := cat.Add("bib", writeTemp(t, "bib.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	q := mustPrepare(t, bufferingQuery)
	predicted := q.plan.PredictedPeakBytes()
	if got := cat.Charge("bib", q); got != predicted {
		t.Fatalf("cold charge = %d, want the prediction %d", got, predicted)
	}
	if got := cat.Charge("nosuch", q); got != predicted {
		t.Fatalf("charge on an unknown document = %d, want the prediction %d", got, predicted)
	}
	info, err := cat.Info("bib")
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct{ observe, want int64 }{
		{300, 300},
		{200, 300}, // a smaller run does not lower the charge
		{500, 500},
	} {
		cat.ObservePeak(info, q.plan.SigKey(), step.observe)
		if got := cat.Charge("bib", q); got != step.want {
			t.Fatalf("after observing %d: charge = %d, want %d", step.observe, got, step.want)
		}
	}

	zero := NewCatalog(CatalogOptions{})
	if err := zero.Add("bib", writeTemp(t, "bib.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	zinfo, _ := zero.Info("bib")
	zero.ObservePeak(zinfo, q.plan.SigKey(), 0)
	if got := zero.Charge("bib", q); got != 0 {
		t.Fatalf("after observing 0: charge = %d, want 0", got)
	}
}

// blockingWriter parks the first Write until release is closed, holding
// a scan in flight.
type blockingWriter struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return len(p), nil
}

// TestAdmissionChargesObservedPeak: a scan the Executor admits holds
// exactly its queries' charge resident — the prediction on a cold
// document, the observed peak once a run has completed — and returns
// it when the scan ends.
func TestAdmissionChargesObservedPeak(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	if err := cat.Add("bib", writeTemp(t, "bib.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{Window: time.Millisecond, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := mustPrepare(t, bufferingQuery)
	var observed int64
	for _, want := range []int64{q.plan.PredictedPeakBytes(), -1} {
		w := &blockingWriter{started: make(chan struct{}), release: make(chan struct{})}
		done := make(chan ExecResult, 1)
		go func() {
			res, err := ex.ExecuteContext(context.Background(), "bib", bufferingQuery, w)
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		<-w.started
		if want < 0 {
			want = observed
		}
		if got := cat.AdmissionStats().ResidentBufferBytes; got != want {
			t.Errorf("resident while scanning = %d, want the charge %d", got, want)
		}
		close(w.release)
		observed = (<-done).Stats.PeakBufferBytes
		if got := cat.AdmissionStats().ResidentBufferBytes; got != 0 {
			t.Fatalf("resident after the scan = %d, want 0", got)
		}
	}
	if observed == q.plan.PredictedPeakBytes() {
		t.Fatalf("observed peak %d equals the prediction: the test cannot tell them apart", observed)
	}
}

// TestExecutorFeedsObservedPeaks: a successful execution through the
// Executor prices its signature's next admission on that document at
// the peak the run reported. The price belongs to the signature: a
// streaming query projecting the same paths is charged it too, until a
// run of its own observes more.
func TestExecutorFeedsObservedPeaks(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	if err := cat.Add("bib", writeTemp(t, "bib.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, ExecutorOptions{Window: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	buffering, streaming := mustPrepare(t, bufferingQuery), mustPrepare(t, streamingQuery)
	if buffering.plan.SigKey() != streaming.plan.SigKey() {
		t.Fatal("test queries no longer share a signature")
	}
	res, err := ex.ExecuteContext(context.Background(), "bib", bufferingQuery, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	peak := res.Stats.PeakBufferBytes
	if peak <= 0 || peak == buffering.plan.PredictedPeakBytes() {
		t.Fatalf("observed peak %d: the test needs a positive peak unlike the prediction", peak)
	}
	for _, q := range []*Query{buffering, streaming} {
		if got := cat.Charge("bib", q); got != peak {
			t.Fatalf("charge = %d, want the signature's observed peak %d", got, peak)
		}
	}
	// The streaming sibling's own run observes 0 and lowers nothing.
	if _, err := ex.ExecuteContext(context.Background(), "bib", streamingQuery, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := cat.Charge("bib", streaming); got != peak {
		t.Fatalf("charge after the streaming run = %d, want still %d", got, peak)
	}
}

// TestChargePerSignature: observations are keyed by plan signature and
// by document — one query's peak never prices another signature, nor
// the same query over another document.
func TestChargePerSignature(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	for _, name := range []string{"a", "b"} {
		if err := cat.Add(name, writeTemp(t, name+".xml", catDoc), catDTD); err != nil {
			t.Fatal(err)
		}
	}
	hot := mustPrepare(t, bufferingQuery)
	other := mustPrepare(t, `<out> { for $b in /bib/book where $b/title = 'XMark' return {$b/title} } </out>`)
	if hot.plan.SigKey() == other.plan.SigKey() {
		t.Fatal("test queries share a signature")
	}
	info, _ := cat.Info("a")
	cat.ObservePeak(info, hot.plan.SigKey(), 7)
	if got := cat.Charge("a", hot); got != 7 {
		t.Fatalf("observed signature charged %d, want 7", got)
	}
	if got, want := cat.Charge("a", other), other.plan.PredictedPeakBytes(); got != want {
		t.Fatalf("unobserved signature charged %d, want its prediction %d", got, want)
	}
	if got, want := cat.Charge("b", hot), hot.plan.PredictedPeakBytes(); got != want {
		t.Fatalf("observed signature on another document charged %d, want its prediction %d", got, want)
	}
}

// TestPeakTableBounded: a document's table holds at most maxPeakSigs
// signatures; a new signature at the cap drops the table, so earlier
// signatures fall back to their predictions until they run again.
func TestPeakTableBounded(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	if err := cat.Add("bib", writeTemp(t, "bib.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	q := mustPrepare(t, bufferingQuery)
	info, _ := cat.Info("bib")
	cat.ObservePeak(info, q.plan.SigKey(), 7)
	for i := 1; i < maxPeakSigs; i++ {
		cat.ObservePeak(info, fmt.Sprintf("sig-%d", i), 1)
	}
	if got := cat.Charge("bib", q); got != 7 {
		t.Fatalf("charge at the cap = %d, want 7", got)
	}
	cat.ObservePeak(info, q.plan.SigKey(), 9) // known signature: no reset
	if got := cat.Charge("bib", q); got != 9 {
		t.Fatalf("charge after a known signature at the cap = %d, want 9", got)
	}
	cat.ObservePeak(info, "fresh", 1) // one signature too many
	if got, want := cat.Charge("bib", q), q.plan.PredictedPeakBytes(); got != want {
		t.Fatalf("charge after overflow = %d, want the prediction %d", got, want)
	}
	d := cat.docs["bib"]
	if n := len(d.peaks); n != 1 {
		t.Fatalf("table holds %d signatures after overflow, want only the newcomer", n)
	}
}

// TestChargeResetsOnSwap: a Swap drops the document's observed peaks —
// they described the old file — and an observation of a scan that read
// the pre-swap file never lands in the new table.
func TestChargeResetsOnSwap(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	if err := cat.Add("bib", writeTemp(t, "bib.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	q := mustPrepare(t, bufferingQuery)
	before, _ := cat.Info("bib")
	cat.ObservePeak(before, q.plan.SigKey(), 7)
	if err := cat.Swap("bib", writeTemp(t, "bib2.xml", catDoc2)); err != nil {
		t.Fatal(err)
	}
	if got, want := cat.Charge("bib", q), q.plan.PredictedPeakBytes(); got != want {
		t.Fatalf("charge after swap = %d, want the prediction %d", got, want)
	}
	cat.ObservePeak(before, q.plan.SigKey(), 7) // a scan of the old file finishing late
	if got, want := cat.Charge("bib", q), q.plan.PredictedPeakBytes(); got != want {
		t.Fatalf("stale observation landed: charge = %d, want the prediction %d", got, want)
	}
	after, _ := cat.Info("bib")
	cat.ObservePeak(after, q.plan.SigKey(), 5)
	if got := cat.Charge("bib", q); got != 5 {
		t.Fatalf("charge after observing the new file = %d, want 5", got)
	}
}

// TestCatalogStreamDoc: a stream-backed document supports everything
// schema-shaped (Prepare, Schema, DTD, shared schema entries) but has no
// file to Open or Swap.
func TestCatalogStreamDoc(t *testing.T) {
	cat := NewCatalog(CatalogOptions{})
	if err := cat.AddStream("", catDTD); err == nil {
		t.Fatal("AddStream with empty name must fail")
	}
	if err := cat.AddStream("live", catDTD); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddStream("live", catDTD); !errors.Is(err, ErrDocExists) {
		t.Fatalf("duplicate AddStream: err = %v, want ErrDocExists", err)
	}

	info, err := cat.Info("live")
	if err != nil || !info.Stream || info.Path != "" {
		t.Fatalf("Info = %+v, %v; want Stream=true, empty path", info, err)
	}
	if _, err := cat.Open("live"); !errors.Is(err, ErrDocStreamBacked) {
		t.Fatalf("Open on stream doc: err = %v, want ErrDocStreamBacked", err)
	}
	if err := cat.Swap("live", writeTemp(t, "bib.xml", catDoc)); !errors.Is(err, ErrDocStreamBacked) {
		t.Fatalf("Swap on stream doc: err = %v, want ErrDocStreamBacked", err)
	}

	q, err := cat.Prepare("live", "{ for $b in /bib/book return {$b/title} }")
	if err != nil {
		t.Fatal(err)
	}
	if q.Plan() == nil {
		t.Fatal("compiled query exposes no plan")
	}
	got, _, err := q.RunString(catDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "<title>FluX</title><title>XMark</title>"; got != want {
		t.Fatalf("query over stream-doc schema = %q, want %q", got, want)
	}

	// A file-backed document with the same DTD text shares the parsed
	// schema entry, so compiled queries are shared across both.
	if err := cat.Add("bib", writeTemp(t, "bib2.xml", catDoc), catDTD); err != nil {
		t.Fatal(err)
	}
	q2, err := cat.Prepare("bib", "{ for $b in /bib/book return {$b/title} }")
	if err != nil {
		t.Fatal(err)
	}
	if q2 != q {
		t.Fatal("stream and file docs with identical DTD text must share compiled queries")
	}
}
