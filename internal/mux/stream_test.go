package mux_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"flux/internal/core"
	"flux/internal/dtd"
	"flux/internal/engine"
	"flux/internal/mux"
	"flux/internal/sax"
)

// feedStream runs a streaming mux over doc pushed in the given chunk
// sizes and returns EndStream's results.
func feedStream(t *testing.T, m *mux.Mux, doc string, chunk int) []mux.Result {
	t.Helper()
	if err := m.BeginStream(); err != nil {
		t.Fatal(err)
	}
	cs := sax.StartChunked(context.Background(), m, scanOpt)
	for len(doc) > 0 {
		n := chunk
		if n > len(doc) {
			n = len(doc)
		}
		if _, err := cs.Write([]byte(doc[:n])); err != nil {
			break // scan died; Close reports why
		}
		doc = doc[n:]
	}
	return m.EndStream(cs.Close())
}

// TestStreamMatchesRun: a chunked stream with standing subscriptions
// produces byte-identical per-query output and stats to a batch Run of
// the same plans over the same document.
func TestStreamMatchesRun(t *testing.T) {
	queries := []string{
		`{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`,
		`{ ps $ROOT: on r as $r return { ps $r: on c as $c return { $c } } }`,
		`{ ps $ROOT: on r as $r return { $r } }`,
	}

	batch := mux.NewSelective()
	batchOut := make([]*strings.Builder, len(queries))
	for i, q := range queries {
		batchOut[i] = &strings.Builder{}
		batch.Add(compile(t, selDTD, q), batchOut[i])
	}
	batchRes, err := batch.Run(nil, strings.NewReader(selDoc), scanOpt)
	if err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 7, len(selDoc)} {
		m := mux.NewStreaming()
		streamOut := make([]*strings.Builder, len(queries))
		for i, q := range queries {
			streamOut[i] = &strings.Builder{}
			m.Add(compile(t, selDTD, q), streamOut[i])
		}
		streamRes := feedStream(t, m, selDoc, chunk)
		for i := range queries {
			if streamRes[i].Err != nil {
				t.Fatalf("chunk %d query %d: %v", chunk, i, streamRes[i].Err)
			}
			if streamOut[i].String() != batchOut[i].String() {
				t.Errorf("chunk %d query %d output: stream %q, batch %q",
					chunk, i, streamOut[i].String(), batchOut[i].String())
			}
			if streamRes[i].Stats.OutputBytes != batchRes[i].Stats.OutputBytes {
				t.Errorf("chunk %d query %d output bytes: stream %d, batch %d",
					chunk, i, streamRes[i].Stats.OutputBytes, batchRes[i].Stats.OutputBytes)
			}
			if streamRes[i].Stats.PeakBufferBytes != batchRes[i].Stats.PeakBufferBytes {
				t.Errorf("chunk %d query %d peak buffer: stream %d, batch %d",
					chunk, i, streamRes[i].Stats.PeakBufferBytes, batchRes[i].Stats.PeakBufferBytes)
			}
		}
	}
}

// notifyWriter signals on first write, so tests can observe when a
// subscriber starts receiving results.
type notifyWriter struct {
	mu    sync.Mutex
	sb    strings.Builder
	first chan struct{}
	once  sync.Once
}

func newNotifyWriter() *notifyWriter { return &notifyWriter{first: make(chan struct{})} }

func (w *notifyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.once.Do(func() { close(w.first) })
	return w.sb.Write(p)
}

func (w *notifyWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// TestStreamResultsBeforeEnd: a subscription's results reach its writer
// while the stream is still open — before EndStream, before even the
// last chunk is pushed.
func TestStreamResultsBeforeEnd(t *testing.T) {
	m := mux.NewStreaming()
	w := newNotifyWriter()
	m.Add(compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`), w)
	if err := m.BeginStream(); err != nil {
		t.Fatal(err)
	}
	cs := sax.StartChunked(context.Background(), m, scanOpt)
	// Push everything up to (but not including) the closing </r>.
	head := selDoc[:strings.LastIndex(selDoc, "</r>")]
	if _, err := cs.Write([]byte(head)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.first:
	case <-time.After(5 * time.Second):
		t.Fatal("no output before end of stream")
	}
	if _, err := cs.Write([]byte("</r>")); err != nil {
		t.Fatal(err)
	}
	res := m.EndStream(cs.Close())
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if want := `<a><x>ax1</x><y>ay1</y></a><a><x>ax2</x><y>ay2</y></a>`; w.String() != want {
		t.Errorf("output = %q, want %q", w.String(), want)
	}
}

// TestStreamMidJoin: a subscription attached mid-stream activates at the
// next top-level sync point and sees exactly the document suffix.
func TestStreamMidJoin(t *testing.T) {
	m := mux.NewStreaming()
	// One standing subscription keeps the stream busy.
	m.Add(compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`), &strings.Builder{})
	if err := m.BeginStream(); err != nil {
		t.Fatal(err)
	}
	cs := sax.StartChunked(context.Background(), m, scanOpt)
	// Feed both <a> subtrees, then attach a late subscription for <c>.
	cut := strings.Index(selDoc, "<b>")
	if _, err := cs.Write([]byte(selDoc[:cut])); err != nil {
		t.Fatal(err)
	}

	var lateOut strings.Builder
	slotc := make(chan int, 1)
	errc := make(chan error, 1)
	plan := compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on c as $c return { $c } } }`)
	if err := m.AttachStream(nil, plan, &lateOut, func(slot int, err error) {
		slotc <- slot
		errc <- err
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := cs.Write([]byte(selDoc[cut:])); err != nil {
		t.Fatal(err)
	}
	res := m.EndStream(cs.Close())

	slot := <-slotc
	if err := <-errc; err != nil {
		t.Fatalf("late subscription rejected: %v", err)
	}
	if slot < 0 {
		t.Fatalf("late subscription got slot %d", slot)
	}
	if res[slot].Err != nil {
		t.Fatalf("late subscription failed: %v", res[slot].Err)
	}
	if want := "<c>c1</c><c>c2</c>"; lateOut.String() != want {
		t.Errorf("late output = %q, want %q (document suffix only)", lateOut.String(), want)
	}
	if res[0].Err != nil {
		t.Fatalf("standing subscription failed: %v", res[0].Err)
	}
}

// TestStreamJoinAfterEnd: a subscription still pending when the stream
// ends is rejected with ErrStreamEnded, never silently dropped.
func TestStreamJoinAfterEnd(t *testing.T) {
	m := mux.NewStreaming()
	m.Add(compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`), &strings.Builder{})
	if err := m.BeginStream(); err != nil {
		t.Fatal(err)
	}
	cs := sax.StartChunked(context.Background(), m, scanOpt)
	if _, err := cs.Write([]byte(selDoc)); err != nil {
		t.Fatal(err)
	}
	scanErr := cs.Close() // scan is over; anything attached now stays pending

	errc := make(chan error, 1)
	plan := compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on c as $c return { $c } } }`)
	if err := m.AttachStream(nil, plan, &strings.Builder{}, func(slot int, err error) {
		errc <- err
	}); err != nil {
		t.Fatal(err)
	}
	m.EndStream(scanErr)

	if err := <-errc; !errors.Is(err, mux.ErrStreamEnded) {
		t.Fatalf("post-stream join: err = %v, want ErrStreamEnded", err)
	}
}

// TestStreamDetachOnCancel: canceling a subscription's context detaches
// it mid-stream — OnDetach fires, its Result records the cancellation —
// while its siblings stream on.
func TestStreamDetachOnCancel(t *testing.T) {
	m := mux.NewStreaming()
	detached := make(chan int, 4)
	m.OnDetach(func(slot int, err error) { detached <- slot })

	ctx, cancel := context.WithCancel(context.Background())
	ci := m.AddContext(ctx, compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`), &strings.Builder{})
	var liveOut strings.Builder
	li := m.Add(compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on c as $c return { $c } } }`), &liveOut)

	if err := m.BeginStream(); err != nil {
		t.Fatal(err)
	}
	cs := sax.StartChunked(context.Background(), m, scanOpt)
	cut := strings.Index(selDoc, "<b>")
	if _, err := cs.Write([]byte(selDoc[:cut])); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := cs.Write([]byte(selDoc[cut:])); err != nil {
		t.Fatal(err)
	}
	res := m.EndStream(cs.Close())

	if got := <-detached; got != ci {
		t.Errorf("OnDetach slot = %d, want %d", got, ci)
	}
	if !errors.Is(res[ci].Err, context.Canceled) {
		t.Errorf("canceled slot err = %v, want context.Canceled", res[ci].Err)
	}
	if res[li].Err != nil {
		t.Fatalf("sibling failed: %v", res[li].Err)
	}
	if want := "<c>c1</c><c>c2</c>"; liveOut.String() != want {
		t.Errorf("sibling output = %q, want %q", liveOut.String(), want)
	}
}

// TestStreamZeroSubscribers: a stream with no subscriptions at all is
// still consumed and well-formedness checked — subscribers may join at
// any time, so the scan must not abort for lack of an audience.
func TestStreamZeroSubscribers(t *testing.T) {
	m := mux.NewStreaming()
	if err := m.BeginStream(); err != nil {
		t.Fatal(err)
	}
	cs := sax.StartChunked(context.Background(), m, scanOpt)
	if _, err := cs.Write([]byte(selDoc)); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatalf("empty-audience stream failed: %v", err)
	}
	if res := m.EndStream(nil); len(res) != 0 {
		t.Fatalf("results = %v, want none", res)
	}
	if m.Events() == 0 {
		t.Fatal("stream not consumed")
	}
}

// TestStreamAbortPropagates: a producer failure (EndStream with a
// stream error) is recorded on every live subscription.
func TestStreamAbortPropagates(t *testing.T) {
	m := mux.NewStreaming()
	m.Add(compile(t, selDTD, `{ ps $ROOT: on r as $r return { $r } }`), &strings.Builder{})
	if err := m.BeginStream(); err != nil {
		t.Fatal(err)
	}
	cs := sax.StartChunked(context.Background(), m, scanOpt)
	if _, err := cs.Write([]byte(`<r><a><x>ax1</x>`)); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("producer died")
	res := m.EndStream(cs.Abort(cause))
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), cause.Error()) {
		t.Fatalf("aborted stream: err = %v, want cause %q", res[0].Err, cause)
	}
}

// TestStreamRunRejected: the batch entry point is off-limits for a
// streaming mux.
func TestStreamRunRejected(t *testing.T) {
	m := mux.NewStreaming()
	m.Add(compile(t, selDTD, `{ ps $ROOT: on r as $r return { $r } }`), &strings.Builder{})
	if _, err := m.Run(nil, strings.NewReader(selDoc), scanOpt); err == nil {
		t.Fatal("Run on a streaming mux must fail")
	}
}

// TestStreamGroupJoin: a mid-stream joiner with the same signature as a
// standing subscription lands in the same routing group and still gets
// correct output.
func TestStreamGroupJoin(t *testing.T) {
	// Grouping keys on (schema pointer, signature); share one schema the
	// way a catalog-backed hub does.
	schema := dtd.MustParse(selDTD)
	compileShared := func(q string) *engine.Plan {
		t.Helper()
		f, err := core.ParseFlux(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.Compile(schema, f)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	m := mux.NewStreaming()
	var out1 strings.Builder
	q := `{ ps $ROOT: on r as $r return { ps $r: on c as $c return { $c } } }`
	m.Add(compileShared(q), &out1)
	if err := m.BeginStream(); err != nil {
		t.Fatal(err)
	}
	cs := sax.StartChunked(context.Background(), m, scanOpt)
	cut := strings.Index(selDoc, "<b>")
	if _, err := cs.Write([]byte(selDoc[:cut])); err != nil {
		t.Fatal(err)
	}
	var out2 strings.Builder
	if err := m.AttachStream(nil, compileShared(q), &out2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Write([]byte(selDoc[cut:])); err != nil {
		t.Fatal(err)
	}
	res := m.EndStream(cs.Close())
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	if want := "<c>c1</c><c>c2</c>"; out1.String() != want || out2.String() != want {
		t.Errorf("outputs = %q / %q, want both %q", out1.String(), out2.String(), want)
	}
	if groups := m.Groups(); len(groups) != 1 || groups[0].Queries != 2 {
		t.Errorf("groups = %+v, want one group of 2", groups)
	}
}

// wideDoc builds a document long enough to span several scanner
// batches.
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

// runPlans executes plans over doc through a fresh mux, returning
// outputs, results, and the stream error.
func runPlans(m *mux.Mux, plans []*engine.Plan, doc string) ([]string, []mux.Result, error) {
	outs := make([]*strings.Builder, len(plans))
	for i, p := range plans {
		outs[i] = &strings.Builder{}
		m.Add(p, outs[i])
	}
	results, err := m.Run(nil, strings.NewReader(doc), scanOpt)
	ss := make([]string, len(plans))
	for i, sb := range outs {
		ss[i] = sb.String()
	}
	return ss, results, err
}

// TestParallelMatchesSequential: a streaming mux — the unit a stream
// hub runs one of per core (internal/stream) — must be observably
// identical to the batch selective scan over a document spanning many
// batches: outputs and stats, per query.
func TestParallelMatchesSequential(t *testing.T) {
	doc := wideDoc(300)
	seqOut, seqRes, seqErr := runPlans(mux.NewSelective(), selPlans(t), doc)
	if seqErr != nil {
		t.Fatal(seqErr)
	}

	plans := selPlans(t)
	m := mux.NewStreaming()
	outs := make([]*strings.Builder, len(plans))
	for i, p := range plans {
		outs[i] = &strings.Builder{}
		m.Add(p, outs[i])
	}
	res := feedStream(t, m, doc, 4<<10)
	for i := range plans {
		if res[i].Err != nil {
			t.Fatalf("query %d: %v", i, res[i].Err)
		}
		if outs[i].String() != seqOut[i] {
			t.Errorf("query %d output: streaming %q, batch %q", i, outs[i].String(), seqOut[i])
		}
		if res[i].Stats != seqRes[i].Stats {
			t.Errorf("query %d stats: streaming %+v, batch %+v", i, res[i].Stats, seqRes[i].Stats)
		}
	}
}
