package stream_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flux"
	"flux/internal/stream"
)

const liveDTD = `
<!ELEMENT r (a*,b*,c*)>
<!ELEMENT a (x,y)>
<!ELEMENT b (x)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
`

const liveDoc = `<r>` +
	`<a><x>ax1</x><y>ay1</y></a><a><x>ax2</x><y>ay2</y></a>` +
	`<b><x>bx1</x></b><b><x>bx2</x></b>` +
	`<c>c1</c><c>c2</c>` +
	`</r>`

var liveQueries = []string{
	`{ for $a in /r/a return {$a} }`,
	`{ for $b in /r/b return {$b/x} }`,
	`{ for $c in /r/c return {$c} }`,
}

// newHub returns a hub over a catalog holding one stream-backed
// document named "live".
func newHub(t *testing.T, opt stream.Options) (*stream.Hub, *flux.Catalog) {
	t.Helper()
	cat := flux.NewCatalog(flux.CatalogOptions{})
	if err := cat.AddStream("live", liveDTD); err != nil {
		t.Fatal(err)
	}
	return stream.NewHub(cat, opt), cat
}

// staticResult evaluates the query over doc through the batch path —
// the oracle every streamed result must match byte for byte.
func staticResult(t *testing.T, cat *flux.Catalog, query, doc string) (string, flux.Stats) {
	t.Helper()
	q, err := cat.Prepare("live", query)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := q.RunString(doc, flux.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// lockedBuffer is a concurrency-safe bytes.Buffer for subscriber
// output that tests inspect before Done.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (lb *lockedBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.buf.Write(p)
}

func (lb *lockedBuffer) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.buf.String()
}

func waitDone(t *testing.T, sub *stream.Subscription) {
	t.Helper()
	select {
	case <-sub.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("subscription did not finish")
	}
}

// TestStreamStaticEquivalence: subscriptions registered before the
// ingest see, from a document fed in tiny chunks, byte-identical output
// and equal engine stats to the batch path over the same document — and
// each charges the catalog's admission gate while it stands.
func TestStreamStaticEquivalence(t *testing.T) {
	hub, cat := newHub(t, stream.Options{})
	var subs []*stream.Subscription
	var outs []*lockedBuffer
	for _, q := range liveQueries {
		out := &lockedBuffer{}
		sub, err := hub.Subscribe(context.Background(), "live", q, out, stream.PolicyBlock)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
		outs = append(outs, out)
	}
	if st := hub.Stats(); st.WaitingSubscriptions != 3 {
		t.Fatalf("parked subscriptions = %d, want 3", st.WaitingSubscriptions)
	}
	if st := cat.AdmissionStats(); st.Active != 3 {
		t.Fatalf("admitted charges = %d, want 3", st.Active)
	}

	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	if st := hub.Stats(); st.WaitingSubscriptions != 0 || len(st.ActiveIngests) != 1 {
		t.Fatalf("hub stats after StartIngest = %+v", st)
	}
	for i := 0; i < len(liveDoc); i += 3 {
		end := min(i+3, len(liveDoc))
		if _, err := ing.Write([]byte(liveDoc[i:end])); err != nil {
			t.Fatalf("chunk at %d: %v", i, err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	for i, sub := range subs {
		waitDone(t, sub)
		if err := sub.Err(); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		wantOut, wantSt := staticResult(t, cat, liveQueries[i], liveDoc)
		if got := outs[i].String(); got != wantOut {
			t.Fatalf("query %d streamed %q, static %q", i, got, wantOut)
		}
		st := sub.Stats()
		if st.OutputBytes != wantSt.OutputBytes {
			t.Fatalf("query %d OutputBytes = %d, static %d", i, st.OutputBytes, wantSt.OutputBytes)
		}
		if st.PeakBufferBytes != wantSt.PeakBufferBytes {
			t.Fatalf("query %d PeakBufferBytes = %d, static %d", i, st.PeakBufferBytes, wantSt.PeakBufferBytes)
		}
		if st.DroppedBytes != 0 {
			t.Fatalf("query %d dropped %d bytes under PolicyBlock", i, st.DroppedBytes)
		}
		// A clean end prices the next admission of the query's signature.
		q, _ := cat.Prepare("live", liveQueries[i])
		if got := cat.Charge("live", q); got != st.PeakBufferBytes {
			t.Fatalf("query %d charge = %d, want its observed peak %d", i, got, st.PeakBufferBytes)
		}
	}
	if st := cat.AdmissionStats(); st.Active != 0 {
		t.Fatalf("admission charges not released: %d active", st.Active)
	}
	if ing.Events() == 0 {
		t.Fatal("ingest reports zero scan events")
	}
}

// TestStreamSubscribeMidStream: a subscription joining while the stream
// is in flight observes exactly the document suffix from its sync
// point on.
func TestStreamSubscribeMidStream(t *testing.T) {
	hub, _ := newHub(t, stream.Options{})
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	cut := strings.Index(liveDoc, "<c>")
	if _, err := ing.Write([]byte(liveDoc[:cut])); err != nil {
		t.Fatal(err)
	}
	out := &lockedBuffer{}
	sub, err := hub.Subscribe(context.Background(), "live", liveQueries[2], out, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Write([]byte(liveDoc[cut:])); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, sub)
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "<c>c1</c><c>c2</c>"; got != want {
		t.Fatalf("mid-stream join output %q, want %q", got, want)
	}
}

// TestStreamResultsBeforeEnd: a completed match is delivered to the
// subscriber while the stream is still open — before the closing root
// tag has even been written.
func TestStreamResultsBeforeEnd(t *testing.T) {
	hub, _ := newHub(t, stream.Options{})
	out := &lockedBuffer{}
	sub, err := hub.Subscribe(context.Background(), "live", liveQueries[0], out, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Write([]byte(liveDoc[:len(liveDoc)-len("</r>")])); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	want := "<a><x>ax1</x><y>ay1</y></a><a><x>ax2</x><y>ay2</y></a>"
	for out.String() != want {
		if time.Now().After(deadline) {
			t.Fatalf("before end of stream: output %q, want %q", out.String(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := ing.Write([]byte("</r>")); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, sub)
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
	if sub.Stats().FirstResult == 0 {
		t.Fatal("FirstResult latency not recorded")
	}
}

// TestStreamCancelMidMatch: canceling a subscription's context detaches
// it mid-stream — its Done closes with the cancellation well before the
// stream ends — while a sibling subscription is untouched.
func TestStreamCancelMidMatch(t *testing.T) {
	hub, _ := newHub(t, stream.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	canceledOut, siblingOut := &lockedBuffer{}, &lockedBuffer{}
	canceled, err := hub.Subscribe(ctx, "live", liveQueries[0], canceledOut, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := hub.Subscribe(context.Background(), "live", liveQueries[2], siblingOut, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	cut := strings.Index(liveDoc, "<b>")
	if _, err := ing.Write([]byte(liveDoc[:cut])); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := ing.Write([]byte(liveDoc[cut:])); err != nil {
		t.Fatal(err)
	}
	// The canceled subscription must finish off the stream's own
	// lifecycle: its detach happens at batch granularity, no Close yet.
	waitDone(t, canceled)
	if err := canceled.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled subscription err = %v, want context.Canceled", err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, sibling)
	if err := sibling.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := siblingOut.String(), "<c>c1</c><c>c2</c>"; got != want {
		t.Fatalf("sibling output %q, want %q", got, want)
	}
}

// gatedWriter blocks every Write until the gate opens.
type gatedWriter struct {
	gate <-chan struct{}
	lockedBuffer
}

func (gw *gatedWriter) Write(p []byte) (int, error) {
	<-gw.gate
	return gw.lockedBuffer.Write(p)
}

// bigLiveDoc builds a document whose per-query output far exceeds a
// small ring buffer.
func bigLiveDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		sb.WriteString("<a><x>payload-payload-payload</x><y>value-value-value</y></a>")
	}
	sb.WriteString("<c>tail</c></r>")
	return sb.String()
}

// TestStreamBackpressureBlock: under PolicyBlock a subscriber that
// stops draining parks the scan once its ring fills, which blocks the
// producer's Write — bounded memory by backpressure, not by growth —
// and everything flows to completion once the subscriber resumes.
func TestStreamBackpressureBlock(t *testing.T) {
	hub, cat := newHub(t, stream.Options{SubscriberBuffer: 64})
	gate := make(chan struct{})
	out := &gatedWriter{gate: gate}
	sub, err := hub.Subscribe(context.Background(), "live", liveQueries[0], out, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	doc := bigLiveDoc(2000)
	wrote := make(chan error, 1)
	go func() {
		_, werr := ing.Write([]byte(doc))
		wrote <- werr
	}()
	select {
	case werr := <-wrote:
		t.Fatalf("full-document Write completed against a blocked subscriber (err=%v)", werr)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	if werr := <-wrote; werr != nil {
		t.Fatal(werr)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, sub)
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
	want, _ := staticResult(t, cat, liveQueries[0], doc)
	if got := out.String(); got != want {
		t.Fatalf("output after backpressure diverged: %d bytes vs %d static", len(got), len(want))
	}
	if st := sub.Stats(); st.DroppedBytes != 0 {
		t.Fatalf("PolicyBlock dropped %d bytes", st.DroppedBytes)
	}
}

// TestStreamDropPolicy: under PolicyDrop a full ring discards the
// overflow and counts it instead of stalling the stream — the producer
// finishes at full speed against a subscriber that never drains.
func TestStreamDropPolicy(t *testing.T) {
	hub, cat := newHub(t, stream.Options{SubscriberBuffer: 64})
	gate := make(chan struct{})
	out := &gatedWriter{gate: gate}
	sub, err := hub.Subscribe(context.Background(), "live", liveQueries[0], out, stream.PolicyDrop)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	doc := bigLiveDoc(200)
	if _, err := ing.Write([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	close(gate) // let the drain deliver what survived
	waitDone(t, sub)
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.DroppedBytes == 0 {
		t.Fatal("nothing dropped despite a never-draining subscriber")
	}
	_, wantSt := staticResult(t, cat, liveQueries[0], doc)
	if st.OutputBytes != wantSt.OutputBytes {
		t.Fatalf("engine OutputBytes = %d, static %d (drops must not change what the engine produces)", st.OutputBytes, wantSt.OutputBytes)
	}
	if delivered := int64(len(out.String())); delivered+st.DroppedBytes != st.OutputBytes {
		t.Fatalf("delivered %d + dropped %d != produced %d", delivered, st.DroppedBytes, st.OutputBytes)
	}
}

// TestStreamWriterFailureDetaches: a subscriber whose writer dies is
// detached from the stream; the ingest and its sibling complete clean.
func TestStreamWriterFailureDetaches(t *testing.T) {
	hub, _ := newHub(t, stream.Options{})
	boom := errors.New("subscriber pipe burst")
	dead, err := hub.Subscribe(context.Background(), "live", liveQueries[0], failWriter{boom}, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	siblingOut := &lockedBuffer{}
	sibling, err := hub.Subscribe(context.Background(), "live", liveQueries[2], siblingOut, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Write([]byte(liveDoc)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, dead)
	if err := dead.Err(); !errors.Is(err, boom) {
		t.Fatalf("dead subscriber err = %v, want the writer's failure", err)
	}
	waitDone(t, sibling)
	if err := sibling.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := siblingOut.String(), "<c>c1</c><c>c2</c>"; got != want {
		t.Fatalf("sibling output %q, want %q", got, want)
	}
}

type failWriter struct{ err error }

func (fw failWriter) Write(p []byte) (int, error) { return 0, fw.err }

// TestStreamHubCloseWithOpenStreams: closing the hub while an ingest is
// live — with a producer parked in Write behind a blocked subscriber —
// unwinds everything: the Write returns, subscriptions finish with the
// shutdown error, and the hub rejects further work.
func TestStreamHubCloseWithOpenStreams(t *testing.T) {
	hub, _ := newHub(t, stream.Options{SubscriberBuffer: 64})
	gate := make(chan struct{})
	out := &gatedWriter{gate: gate}
	sub, err := hub.Subscribe(context.Background(), "live", liveQueries[0], out, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	parked, err := hub.Subscribe(context.Background(), "other-parked", liveQueries[0], &lockedBuffer{}, stream.PolicyBlock)
	if !errors.Is(err, flux.ErrDocNotFound) {
		t.Fatalf("subscribe to unknown doc: err = %v, want ErrDocNotFound", err)
	}
	_ = parked
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, werr := ing.Write([]byte(bigLiveDoc(2000)))
		wrote <- werr
	}()
	select {
	case werr := <-wrote:
		t.Fatalf("Write completed against a blocked subscriber (err=%v)", werr)
	case <-time.After(100 * time.Millisecond):
	}
	hub.Close()
	select {
	case <-wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("producer Write still blocked after hub Close")
	}
	// The subscriber's own writer is still parked; release it so the
	// drain goroutine can observe the shutdown. (A real subscriber's
	// writer is interrupted by its transport — e.g. the HTTP server
	// closing the connection.)
	close(gate)
	waitDone(t, sub)
	if err := sub.Err(); err == nil || !strings.Contains(err.Error(), stream.ErrHubClosed.Error()) {
		t.Fatalf("subscription err after shutdown = %v, want hub-closed cause", err)
	}
	if _, err := hub.StartIngest(context.Background(), "live"); !errors.Is(err, stream.ErrHubClosed) {
		t.Fatalf("StartIngest on closed hub: err = %v, want ErrHubClosed", err)
	}
	if _, err := hub.Subscribe(context.Background(), "live", liveQueries[0], &lockedBuffer{}, stream.PolicyBlock); !errors.Is(err, stream.ErrHubClosed) {
		t.Fatalf("Subscribe on closed hub: err = %v, want ErrHubClosed", err)
	}
}

// TestStreamHubCloseRacesStartIngest: Close racing StartIngest neither
// panics nor leaks a live ingest. Each StartIngest either fails with
// ErrHubClosed or returns an ingest whose Dead closes with ErrHubClosed,
// and a subscription parked beforehand ends with the shutdown cause
// either way — rejected while parked, or attached to an ingest aborted
// before its first sync point.
func TestStreamHubCloseRacesStartIngest(t *testing.T) {
	for round := 0; round < 200; round++ {
		hub, _ := newHub(t, stream.Options{})
		sub, err := hub.Subscribe(context.Background(), "live", liveQueries[0], &lockedBuffer{}, stream.PolicyBlock)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		started := make(chan *stream.Ingest, 1)
		go func() {
			<-start
			ing, err := hub.StartIngest(context.Background(), "live")
			if err != nil && !errors.Is(err, stream.ErrHubClosed) {
				t.Errorf("round %d: StartIngest err = %v, want nil or ErrHubClosed", round, err)
			}
			started <- ing
		}()
		close(start)
		// Sweep Close across StartIngest's lifetime, round by round.
		for i := 0; i < round%64; i++ {
			runtime.Gosched()
		}
		hub.Close()
		if ing := <-started; ing != nil {
			select {
			case <-ing.Dead():
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: ingest still live after hub Close", round)
			}
			if err := ing.Err(); !errors.Is(err, stream.ErrHubClosed) {
				t.Fatalf("round %d: ingest ended with %v, want ErrHubClosed", round, err)
			}
		}
		waitDone(t, sub)
		if err := sub.Err(); err == nil || !strings.Contains(err.Error(), stream.ErrHubClosed.Error()) {
			t.Fatalf("round %d: parked subscription err = %v, want hub-closed cause", round, err)
		}
	}
}

// TestStreamIngestAbortRacesHubClose: a producer aborting its ingest
// while the hub closes — a connection drop during server shutdown —
// ends the stream exactly once: the two enders race to the same
// finalization, and the stream ends with one of their causes.
func TestStreamIngestAbortRacesHubClose(t *testing.T) {
	errProducerGone := errors.New("producer gone")
	for round := 0; round < 100; round++ {
		hub, _ := newHub(t, stream.Options{})
		sub, err := hub.Subscribe(context.Background(), "live", liveQueries[0], &lockedBuffer{}, stream.PolicyBlock)
		if err != nil {
			t.Fatal(err)
		}
		ing, err := hub.StartIngest(context.Background(), "live")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ing.Write([]byte(liveDoc[:len(liveDoc)/2])); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); ing.Abort(errProducerGone) }()
		go func() { defer wg.Done(); hub.Close() }()
		wg.Wait()
		<-ing.Dead()
		if err := ing.Err(); !errors.Is(err, errProducerGone) && !errors.Is(err, stream.ErrHubClosed) {
			t.Fatalf("round %d: ingest ended with %v, want one of the enders' causes", round, err)
		}
		waitDone(t, sub)
		if sub.Err() == nil {
			t.Fatalf("round %d: subscription on an aborted stream ended cleanly", round)
		}
	}
}

// TestStreamOneIngestPerDoc: a document is one stream at a time; after
// Close the next ingest may begin, and subscriptions parked in between
// attach to it.
func TestStreamOneIngestPerDoc(t *testing.T) {
	hub, _ := newHub(t, stream.Options{})
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.StartIngest(context.Background(), "live"); !errors.Is(err, stream.ErrIngestActive) {
		t.Fatalf("second StartIngest: err = %v, want ErrIngestActive", err)
	}
	if _, err := ing.Write([]byte(liveDoc)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	out := &lockedBuffer{}
	sub, err := hub.Subscribe(context.Background(), "live", liveQueries[1], out, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	ing2, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatalf("StartIngest after Close: %v", err)
	}
	if _, err := ing2.Write([]byte(liveDoc)); err != nil {
		t.Fatal(err)
	}
	if err := ing2.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, sub)
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "<x>bx1</x><x>bx2</x>"; got != want {
		t.Fatalf("second-ingest output %q, want %q", got, want)
	}
}

// TestStreamAbortFailsSubscriptions: a producer dying mid-document
// fails every open subscription with the abort cause preserved.
func TestStreamAbortFailsSubscriptions(t *testing.T) {
	hub, _ := newHub(t, stream.Options{})
	out := &lockedBuffer{}
	sub, err := hub.Subscribe(context.Background(), "live", liveQueries[0], out, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Write([]byte(`<r><a><x>ax1</x>`)); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("feed connection reset")
	if err := ing.Abort(cause); err == nil || !strings.Contains(err.Error(), cause.Error()) {
		t.Fatalf("Abort returned %v, want the cause preserved", err)
	}
	waitDone(t, sub)
	if err := sub.Err(); err == nil || !strings.Contains(err.Error(), cause.Error()) {
		t.Fatalf("subscription err after abort = %v, want the cause preserved", err)
	}
}

// TestStreamSubscribeCanceledWhileQueued: a Subscribe queued behind a
// full memory gate honours its context — it leaves the admission queue
// and returns ctx.Err() instead of blocking its caller until capacity
// frees.
func TestStreamSubscribeCanceledWhileQueued(t *testing.T) {
	cat := flux.NewCatalog(flux.CatalogOptions{MaxResidentBufferBytes: 1000})
	if err := cat.AddStream("live", liveDTD); err != nil {
		t.Fatal(err)
	}
	hub := stream.NewHub(cat, stream.Options{})
	defer hub.Close()
	// x precedes y in every a, so the where clause makes the query buffer.
	const buffering = `{ for $a in /r/a where $a/y = 'ay1' return {$a/x} }`
	q, err := cat.Prepare("live", buffering)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Charge("live", q) == 0 {
		t.Fatal("test query is charged nothing; it would never queue")
	}
	hold, err := cat.Admit(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer hold()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errc := make(chan error, 1)
	go func() {
		sub, err := hub.Subscribe(ctx, "live", buffering, &lockedBuffer{}, stream.PolicyBlock)
		if sub != nil {
			t.Error("a canceled Subscribe returned a subscription")
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Subscribe err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Subscribe still blocked on a canceled context: %+v", cat.AdmissionStats())
	}
	if st := cat.AdmissionStats(); st.Waiting != 0 || st.Active != 1 || st.ResidentBufferBytes != 1000 {
		t.Fatalf("admission = %+v, want only the holder resident, nothing waiting", st)
	}
}
