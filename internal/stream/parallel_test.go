package stream_test

// Tests for the hub's parallel evaluation: subscriptions with distinct
// signatures sit on different sub-muxes (at GOMAXPROCS ≥ 2), each
// routed on its own goroutine, and the interleavings that makes
// interesting — cancellation, subscriber detach and mid-stream joins
// landing while batches are in flight. Run with -cpu 1,4: at
// GOMAXPROCS=1 the one sub-mux routes inline and the same assertions
// pin that path.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"flux/internal/stream"
)

// parQueries have distinct signatures — three narrow queries, one per
// region, and a whole-document copy — so consecutive subscriptions land
// on consecutive sub-muxes.
var parQueries = []string{
	`{ for $a in /r/a return {$a} }`,
	`{ for $b in /r/b return {$b} }`,
	`{ for $c in /r/c return {$c} }`,
	`{ for $r in /r return {$r} }`,
}

// wideDoc builds a document that spans many scanner batches.
func wideDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		sb.WriteString("<a><x>ax</x><y>ay</y></a>")
	}
	for i := 0; i < n; i++ {
		sb.WriteString("<b><x>bx</x></b>")
	}
	for i := 0; i < n; i++ {
		sb.WriteString("<c>cc</c>")
	}
	sb.WriteString("</r>")
	return sb.String()
}

// writeChunks pushes doc into the ingest in chunk-byte pieces, calling
// before(off) ahead of each piece.
func writeChunks(t *testing.T, ing *stream.Ingest, doc string, chunk int, before func(off int)) {
	t.Helper()
	for off := 0; off < len(doc); off += chunk {
		before(off)
		if _, err := ing.Write([]byte(doc[off:min(off+chunk, len(doc))])); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelCancelMidBatch: a subscription canceled while batches are
// in flight ends with ctx.Err(), and its siblings — on other sub-muxes
// and on its own — stream on to output and stats identical to the
// batch path.
func TestParallelCancelMidBatch(t *testing.T) {
	hub, cat := newHub(t, stream.Options{})
	doc := wideDoc(700) // ~34 KB: many 4 KB chunks
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	subs := make([]*stream.Subscription, len(parQueries))
	outs := make([]*lockedBuffer, len(parQueries))
	for i, q := range parQueries {
		subCtx := context.Background()
		if i == 0 {
			subCtx = ctx
		}
		outs[i] = &lockedBuffer{}
		sub, err := hub.Subscribe(subCtx, "live", q, outs[i], stream.PolicyBlock)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	writeChunks(t, ing, doc, 4<<10, func(off int) {
		if off >= 8<<10 {
			cancel()
		}
	})
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, subs[0])
	if err := subs[0].Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled subscription err = %v, want context.Canceled", err)
	}
	for i := 1; i < len(subs); i++ {
		waitDone(t, subs[i])
		if err := subs[i].Err(); err != nil {
			t.Fatalf("sibling %d poisoned: %v", i, err)
		}
		wantOut, wantSt := staticResult(t, cat, parQueries[i], doc)
		if outs[i].String() != wantOut {
			t.Errorf("sibling %d output differs after mid-scan cancel", i)
		}
		if st := subs[i].Stats(); st.OutputBytes != wantSt.OutputBytes || st.PeakBufferBytes != wantSt.PeakBufferBytes {
			t.Errorf("sibling %d stats: got %+v, want %+v", i, st, wantSt)
		}
	}
}

// failAfterWriter fails with errSubscriberDied once n bytes have been
// written through it.
type failAfterWriter struct {
	n int
}

var errSubscriberDied = errors.New("subscriber died")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.n -= len(p)
	if w.n < 0 {
		return 0, errSubscriberDied
	}
	return len(p), nil
}

// TestParallelStreamDetachMidBatch: a subscriber whose writer dies is
// detached by the sub-mux routing it, mid-stream — its Done closes
// before the document ends — while a sibling on another sub-mux keeps
// streaming to the end.
func TestParallelStreamDetachMidBatch(t *testing.T) {
	// A ring far smaller than the dead subscriber's output: the engine
	// must write through it, and so meets the writer's failure, long
	// before the document ends.
	hub, cat := newHub(t, stream.Options{SubscriberBuffer: 1 << 10})
	doc := wideDoc(300)
	dead, err := hub.Subscribe(context.Background(), "live", parQueries[3], &failAfterWriter{n: 64}, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	liveOut := &lockedBuffer{}
	live, err := hub.Subscribe(context.Background(), "live", parQueries[2], liveOut, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	end := len(doc) - len("</r>")
	writeChunks(t, ing, doc[:end], 4<<10, func(int) {})
	waitDone(t, dead)
	if err := dead.Err(); !errors.Is(err, errSubscriberDied) {
		t.Fatalf("dead subscriber err = %v, want errSubscriberDied", err)
	}
	if _, err := ing.Write([]byte(doc[end:])); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, live)
	if err := live.Err(); err != nil {
		t.Fatalf("surviving subscriber failed: %v", err)
	}
	wantOut, wantSt := staticResult(t, cat, parQueries[2], doc)
	if liveOut.String() != wantOut {
		t.Error("surviving subscriber's output differs after sibling detach")
	}
	if st := live.Stats(); st.OutputBytes != wantSt.OutputBytes || st.PeakBufferBytes != wantSt.PeakBufferBytes {
		t.Errorf("surviving subscriber stats: got %+v, want %+v", st, wantSt)
	}
}

// TestParallelStreamMidJoin: a subscriber joining mid-stream on a
// sub-mux of its own sees the document suffix from that sub-mux's next
// sync point — here every <c>, all of which follow the join — while the
// standing subscriber on another sub-mux is undisturbed.
func TestParallelStreamMidJoin(t *testing.T) {
	hub, _ := newHub(t, stream.Options{})
	doc := wideDoc(200)
	standingOut := &lockedBuffer{}
	standing, err := hub.Subscribe(context.Background(), "live", parQueries[0], standingOut, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := hub.StartIngest(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	cut := strings.Index(doc, "<c>")
	if _, err := ing.Write([]byte(doc[:cut])); err != nil {
		t.Fatal(err)
	}
	lateOut := &lockedBuffer{}
	late, err := hub.Subscribe(context.Background(), "live", parQueries[2], lateOut, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Write([]byte(doc[cut:])); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []*stream.Subscription{standing, late} {
		waitDone(t, sub)
		if err := sub.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if want := strings.Repeat("<c>cc</c>", 200); lateOut.String() != want {
		t.Errorf("late output %d bytes, want %d (document suffix only)", len(lateOut.String()), len(want))
	}
	if want := strings.Repeat("<a><x>ax</x><y>ay</y></a>", 200); standingOut.String() != want {
		t.Errorf("standing output %d bytes, want %d", len(standingOut.String()), len(want))
	}
}

// TestStreamGoroutinesReturnToBaseline: a standing subscription costs
// one goroutine, its drain — the context watch is a context.AfterFunc —
// and parked, canceled and finished subscriptions, an ended ingest and
// a closed hub leave no goroutine behind.
func TestStreamGoroutinesReturnToBaseline(t *testing.T) {
	base := runtime.NumGoroutine()
	hub, cat := newHub(t, stream.Options{})
	if err := cat.AddStream("idle", liveDTD); err != nil {
		t.Fatal(err)
	}
	// Cancelable contexts: each registers a watch.
	parkCtx, parkCancel := context.WithCancel(context.Background())
	defer parkCancel()
	const parked = 4
	var subs []*stream.Subscription
	for i := 0; i < parked; i++ {
		sub, err := hub.Subscribe(parkCtx, "idle", liveQueries[i%len(liveQueries)], &lockedBuffer{}, stream.PolicyBlock)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	if n := runtime.NumGoroutine(); n > base+parked {
		t.Fatalf("%d parked subscriptions run %d goroutines, want at most one each", parked, n-base)
	}

	// Parked and canceled.
	ctx, cancel := context.WithCancel(context.Background())
	canceled, err := hub.Subscribe(ctx, "live", liveQueries[0], &lockedBuffer{}, stream.PolicyBlock)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	waitDone(t, canceled)
	// Finished by its stream's clean end.
	finished, err := hub.Subscribe(context.Background(), "live", liveQueries[1], &lockedBuffer{}, stream.PolicyBlock)
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
	waitDone(t, finished)
	// The parked ones end with the hub.
	hub.Close()
	for _, sub := range subs {
		waitDone(t, sub)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the hub closed, %d before it opened", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
