package mux_test

// Tests for the parallel per-group evaluation pipeline, which a
// streaming mux runs on a multicore host: which muxes run it, equivalence
// with the batch scan, and the interleavings the pipeline makes
// interesting — cancellation and subscriber detach landing mid-batch on
// worker goroutines. Run with -cpu 1,4: at GOMAXPROCS=1 a streaming mux
// routes inline and the same assertions pin that path.

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"flux/internal/engine"
	"flux/internal/mux"
	"flux/internal/sax"
)

// parPlans returns several plans with distinct signatures, so the
// stream forms several routing groups spread over the workers.
func parPlans(t *testing.T) []*engine.Plan {
	t.Helper()
	return selPlans(t)
}

// wideDoc builds a document long enough to cross the inline-batch
// threshold and span several scanner batches.
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

// TestParallelChosenByScanKind: the kind of scan picks the path — a
// streaming mux runs the worker pool whenever GOMAXPROCS ≥ 2, a batch
// mux (New or NewSelective) never does.
func TestParallelChosenByScanKind(t *testing.T) {
	doc := wideDoc(50)
	for _, bm := range []struct {
		name string
		m    *mux.Mux
	}{{"New", mux.New()}, {"NewSelective", mux.NewSelective()}} {
		if _, _, err := runPlans(bm.m, parPlans(t), doc); err != nil {
			t.Fatal(err)
		}
		if bm.m.ParallelActive() {
			t.Errorf("%s: batch scan ran the worker pool", bm.name)
		}
	}
	m := mux.NewStreaming()
	for _, p := range parPlans(t) {
		m.Add(p, io.Discard)
	}
	for i, r := range feedStream(t, m, doc, 4<<10) {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	if want := runtime.GOMAXPROCS(0) >= 2; m.ParallelActive() != want {
		t.Errorf("streaming mux at GOMAXPROCS=%d: ParallelActive = %v, want %v",
			runtime.GOMAXPROCS(0), m.ParallelActive(), want)
	}
}

// TestParallelMatchesSequential: a streaming scan — on the worker pool
// at GOMAXPROCS ≥ 2 — must be observably identical to the batch
// selective scan: outputs and stats, per query.
func TestParallelMatchesSequential(t *testing.T) {
	doc := wideDoc(300)
	seqOut, seqRes, seqErr := runPlans(mux.NewSelective(), parPlans(t), doc)
	if seqErr != nil {
		t.Fatal(seqErr)
	}

	plans := parPlans(t)
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

// TestParallelCancelMidBatch: a stream slot canceled while batches are
// in flight detaches with ctx.Err() — observed by its owning worker at
// batch granularity — and its siblings' output is untouched.
func TestParallelCancelMidBatch(t *testing.T) {
	plans := parPlans(t)
	doc := wideDoc(700) // ~34 KB: many 4 KB chunks

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := mux.NewStreaming()
	outs := make([]*strings.Builder, len(plans))
	for i, p := range plans {
		outs[i] = &strings.Builder{}
		if i == 0 {
			m.AddContext(ctx, p, outs[i])
		} else {
			m.Add(p, outs[i])
		}
	}
	if err := m.BeginStream(); err != nil {
		t.Fatal(err)
	}
	cs := sax.StartChunked(context.Background(), m, scanOpt)
	const chunk = 4 << 10
	for off := 0; off < len(doc); off += chunk {
		if off >= 8<<10 {
			cancel()
		}
		if _, err := cs.Write([]byte(doc[off:min(off+chunk, len(doc))])); err != nil {
			t.Fatal(err)
		}
	}
	results := m.EndStream(cs.Close())
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("canceled slot err = %v, want context.Canceled", results[0].Err)
	}
	seqOut, seqRes, seqErr := runPlans(mux.NewSelective(), parPlans(t), doc)
	if seqErr != nil {
		t.Fatal(seqErr)
	}
	for i := 1; i < len(plans); i++ {
		if results[i].Err != nil {
			t.Fatalf("sibling %d poisoned: %v", i, results[i].Err)
		}
		if outs[i].String() != seqOut[i] {
			t.Errorf("sibling %d output differs after mid-scan cancel", i)
		}
		if results[i].Stats != seqRes[i].Stats {
			t.Errorf("sibling %d stats: got %+v, want %+v", i, results[i].Stats, seqRes[i].Stats)
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

// TestParallelStreamDetachMidBatch: under the worker pool, a
// subscriber whose writer dies is detached by its owning worker —
// OnDetach fires off the scan goroutine with the Result already
// recorded — while siblings keep streaming to the end.
func TestParallelStreamDetachMidBatch(t *testing.T) {
	doc := wideDoc(300)

	// Sequential baseline for the surviving subscriber.
	seqOut, seqRes, seqErr := runPlans(mux.NewSelective(), parPlans(t), doc)
	if seqErr != nil {
		t.Fatal(seqErr)
	}

	plans := parPlans(t)
	m := mux.NewStreaming()
	type detach struct {
		slot int
		err  error
	}
	detached := make(chan detach, len(plans))
	m.OnDetach(func(slot int, err error) { detached <- detach{slot, err} })

	var liveOut strings.Builder
	di := m.Add(plans[3], &failAfterWriter{n: 64}) // whole-document copy; dies quickly
	li := m.Add(plans[2], &liveOut)                // narrow query; survives

	res := feedStream(t, m, doc, 4<<10)
	close(detached)

	var sawDetach bool
	for d := range detached {
		if d.slot == di {
			sawDetach = true
			if !errors.Is(d.err, errSubscriberDied) {
				t.Errorf("detach err = %v, want errSubscriberDied", d.err)
			}
		}
	}
	if !sawDetach {
		t.Fatal("dead subscriber was never detached")
	}
	if !errors.Is(res[di].Err, errSubscriberDied) {
		t.Fatalf("dead subscriber result err = %v, want errSubscriberDied", res[di].Err)
	}
	if res[li].Err != nil {
		t.Fatalf("surviving subscriber failed: %v", res[li].Err)
	}
	if liveOut.String() != seqOut[2] {
		t.Error("surviving subscriber's output differs after sibling detach")
	}
	if res[li].Stats != seqRes[2].Stats {
		t.Errorf("surviving subscriber stats: got %+v, want %+v", res[li].Stats, seqRes[2].Stats)
	}
}

// TestParallelStreamMidJoin: mid-stream joins still work under the
// worker pool — the join quiesces the workers, extends the automaton,
// and the late subscriber sees exactly the document suffix.
func TestParallelStreamMidJoin(t *testing.T) {
	doc := wideDoc(200)
	m := mux.NewStreaming()
	var standingOut strings.Builder
	m.Add(compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on a as $a return { $a } } }`), &standingOut)
	if err := m.BeginStream(); err != nil {
		t.Fatal(err)
	}
	cs := sax.StartChunked(context.Background(), m, scanOpt)
	cut := strings.Index(doc, "<c>")
	if _, err := cs.Write([]byte(doc[:cut])); err != nil {
		t.Fatal(err)
	}
	var lateOut strings.Builder
	errc := make(chan error, 1)
	plan := compile(t, selDTD, `{ ps $ROOT: on r as $r return { ps $r: on c as $c return { $c } } }`)
	if err := m.AttachStream(nil, plan, &lateOut, func(slot int, err error) { errc <- err }); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Write([]byte(doc[cut:])); err != nil {
		t.Fatal(err)
	}
	res := m.EndStream(cs.Close())
	if err := <-errc; err != nil {
		t.Fatalf("late subscription rejected: %v", err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	if want := strings.Repeat("<c>cc</c>", 200); lateOut.String() != want {
		t.Errorf("late output %d bytes, want %d (document suffix only)", lateOut.Len(), len(want))
	}
	if want := strings.Repeat("<a><x>ax</x><y>ay</y></a>", 200); standingOut.String() != want {
		t.Errorf("standing output %d bytes, want %d", standingOut.Len(), len(want))
	}
}
