package mux_test

// Tests for the parallel per-group evaluation pipeline (SetParallel):
// equivalence with the sequential scan, the all-failed abort's skip
// bound, and the interleavings the pipeline makes interesting —
// cancellation and subscriber detach landing mid-batch on worker
// goroutines. Run with -cpu 1,4: at GOMAXPROCS=1 the pipeline falls
// back to sequential and the same assertions pin the fallback.

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
// parallel mux forms enough routing groups to engage its worker pool.
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

// TestParallelMatchesSequential: the parallel pipeline must be
// observably identical to the sequential selective scan — outputs,
// stats, and skip counts, per query.
func TestParallelMatchesSequential(t *testing.T) {
	plans := parPlans(t)
	doc := wideDoc(300)

	seqOut, seqRes, seqErr := runPlans(mux.NewSelective(), plans, doc)
	if seqErr != nil {
		t.Fatal(seqErr)
	}

	pm := mux.NewSelective()
	pm.SetParallel(true)
	parOut, parRes, parErr := runPlans(pm, plans, doc)
	if parErr != nil {
		t.Fatal(parErr)
	}
	if runtime.GOMAXPROCS(0) >= 2 && !pm.ParallelActive() {
		t.Fatal("parallel pipeline did not engage at GOMAXPROCS >= 2")
	}
	for i := range plans {
		if parOut[i] != seqOut[i] {
			t.Errorf("query %d output: parallel %q, sequential %q", i, parOut[i], seqOut[i])
		}
		if parRes[i].Stats != seqRes[i].Stats {
			t.Errorf("query %d stats: parallel %+v, sequential %+v", i, parRes[i].Stats, seqRes[i].Stats)
		}
		if parRes[i].SkippedEvents != seqRes[i].SkippedEvents {
			t.Errorf("query %d skipped: parallel %d, sequential %d",
				i, parRes[i].SkippedEvents, seqRes[i].SkippedEvents)
		}
	}
}

// TestParallelAllFailedSkipCounts: when every query fails mid-stream the
// parallel producer overruns the abort token before noticing. Errors
// must still match the sequential scan's; the skip counts are the
// producer's where it stopped — at least the sequential values, ahead by
// no more than the scanner's batch ring (4 batches of 1024 tokens).
func TestParallelAllFailedSkipCounts(t *testing.T) {
	// Both queries' DTD forbids <a> inside r, and the document buries its
	// first <a> deep enough that the failure lands several batches in.
	badDTD := `
<!ELEMENT r (b*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (x,a?)>
<!ELEMENT x (#PCDATA)>
`
	mkPlans := func() []*engine.Plan {
		return []*engine.Plan{
			compile(t, badDTD, `{ ps $ROOT: on r as $x return { $x } }`),
			compile(t, badDTD, `{ ps $ROOT: on r as $r return { ps $r: on b as $b return { ps $b: on x as $x return { $x } } } }`),
		}
	}
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 800; i++ {
		sb.WriteString("<b><x>1</x></b>")
	}
	sb.WriteString("<a>boom</a>")
	for i := 0; i < 800; i++ {
		sb.WriteString("<b><x>2</x></b>")
	}
	sb.WriteString("</r>")
	doc := sb.String()

	_, seqRes, seqErr := runPlans(mux.NewSelective(), mkPlans(), doc)
	if seqErr == nil {
		t.Fatal("sequential: want an all-queries-failed error")
	}

	pm := mux.NewSelective()
	pm.SetParallel(true)
	_, parRes, parErr := runPlans(pm, mkPlans(), doc)
	if parErr == nil {
		t.Fatal("parallel: want an all-queries-failed error")
	}
	for i := range seqRes {
		if (parRes[i].Err != nil) != (seqRes[i].Err != nil) {
			t.Errorf("query %d error: parallel %v, sequential %v", i, parRes[i].Err, seqRes[i].Err)
		}
		if d := parRes[i].SkippedEvents - seqRes[i].SkippedEvents; d < 0 || d > 4*1024 {
			t.Errorf("query %d skipped: parallel %d, sequential %d; want sequential <= parallel <= sequential+4096",
				i, parRes[i].SkippedEvents, seqRes[i].SkippedEvents)
		}
	}
}

// cancelAfterReader cancels a context once n bytes have been read
// through it, planting a cancellation mid-scan.
type cancelAfterReader struct {
	r      io.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n -= n
	if c.n <= 0 && c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	return n, err
}

// TestParallelCancelMidBatch: a slot canceled while batches are in
// flight detaches with ctx.Err() — observed by its owning worker at
// batch granularity — and its siblings' output is untouched.
func TestParallelCancelMidBatch(t *testing.T) {
	plans := parPlans(t)
	doc := wideDoc(700) // ~34 KB: several scanner input buffers

	ctx, cancel := context.WithCancel(context.Background())
	m := mux.NewSelective()
	m.SetParallel(true)
	outs := make([]*strings.Builder, len(plans))
	for i, p := range plans {
		outs[i] = &strings.Builder{}
		if i == 0 {
			m.AddContext(ctx, p, outs[i])
		} else {
			m.Add(p, outs[i])
		}
	}
	results, err := m.Run(nil, &cancelAfterReader{r: strings.NewReader(doc), n: 8 << 10, cancel: cancel}, scanOpt)
	if err != nil {
		t.Fatal(err)
	}
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

// TestParallelStreamDetachMidBatch: under a parallel stream, a
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
	m.SetParallel(true)
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
// parallel pipeline — the join quiesces the workers, extends the
// automaton, and the late subscriber sees exactly the document suffix.
func TestParallelStreamMidJoin(t *testing.T) {
	doc := wideDoc(200)
	m := mux.NewStreaming()
	m.SetParallel(true)
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

// TestParallelFallback: an all-fanout mux, which the pipeline cannot
// serve, ignores SetParallel and stays sequential.
func TestParallelFallback(t *testing.T) {
	m := mux.New()
	m.SetParallel(true)
	outs, _, err := runPlans(m, parPlans(t), wideDoc(50))
	if err != nil {
		t.Fatal(err)
	}
	if m.ParallelActive() {
		t.Error("parallel pipeline engaged on an all-fanout mux")
	}
	if outs[3] != wideDoc(50) {
		t.Error("fallback output wrong")
	}
}
