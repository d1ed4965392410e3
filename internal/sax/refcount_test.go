package sax

// Unit tests for the Batch reference count (Retain/Release/waitIdle) —
// the mechanism a stream ingest's fan-out uses to keep delivered
// batches alive while sub-mux goroutines are still reading them, and the
// scanner's only backpressure edge (flushBatch blocks on the wrapping
// slot, releaseRing blocks at end of scan).

import (
	"sync/atomic"
	"testing"
	"time"
)

// tokensToEvents deep-copies a batch's tokens into comparable Events
// (Text payloads copied out of the arena).
func tokensToEvents(b *Batch) []Event {
	evs := make([]Event, 0, len(b.Tokens))
	for i := range b.Tokens {
		tok := &b.Tokens[i]
		if tok.Kind == Text {
			evs = append(evs, Event{Kind: Text, Data: string(tok.Data)})
		} else {
			evs = append(evs, Event{Kind: tok.Kind, Name: tok.Name})
		}
	}
	return evs
}

// TestBatchWaitIdle: waitIdle returns immediately at zero references, is
// not fooled by a stale wakeup token left behind by an earlier
// Retain/Release cycle, and otherwise blocks until the last Release —
// which may come from another goroutine.
func TestBatchWaitIdle(t *testing.T) {
	b := &Batch{idle: make(chan struct{}, 1)}
	b.waitIdle() // no references: must not block

	// A full Retain/Release cycle with no waiter deposits a wakeup token
	// that nothing consumes. The next waitIdle takes the fast path (refs
	// already zero) and leaves the token in place...
	b.Retain()
	b.Release()
	b.waitIdle()

	// ...so the cycle after that sees a spurious wakeup first. waitIdle
	// must re-check the count and keep waiting for the real release.
	b.Retain()
	b.Retain()
	var released atomic.Bool
	go func() {
		b.Release() // count still positive: no wakeup yet
		time.Sleep(20 * time.Millisecond)
		released.Store(true)
		b.Release()
	}()
	b.waitIdle()
	if !released.Load() {
		t.Fatal("waitIdle returned before the last Release")
	}
}

// TestBatchUnbalancedReleasePanics: a Release with no matching Retain is
// a bug in the consumer and must panic rather than corrupt the count.
func TestBatchUnbalancedReleasePanics(t *testing.T) {
	b := &Batch{idle: make(chan struct{}, 1)}
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Retain did not panic")
		}
	}()
	b.Release()
}

// TestScanBatchedRetainBackpressure: a retained batch stalls the
// scanner at exactly the ring wrap — after batchRingSize further
// deliveries flushBatch blocks in waitIdle on the retained slot — and
// while it is stalled the batch's tokens and arena remain exactly as
// delivered. A Release from a foreign goroutine unblocks the scan,
// which then completes with the full, unchanged event stream. Run with
// -race: the release goroutine reads the retained tokens concurrently
// with the blocked scanner.
func TestScanBatchedRetainBackpressure(t *testing.T) {
	doc := bigDoc(5000) // many times batchRingSize batches
	var want Collector
	if err := ScanString(doc, &want, Options{}); err != nil {
		t.Fatal(err)
	}

	var (
		got      batchCollector
		calls    int
		retained *Batch
		snapshot []Event
		stalled  = make(chan struct{}) // closed when the producer is about to wrap onto the retained slot
		released = make(chan struct{}) // closed just before Release
	)
	go func() {
		<-stalled
		// Give the scanner time to (wrongly) run ahead; if waitIdle did
		// not block, delivery batchRingSize+1 would land before Release
		// and the handler below would report it.
		time.Sleep(50 * time.Millisecond)
		evs := tokensToEvents(retained)
		if len(evs) != len(snapshot) {
			t.Errorf("retained batch has %d tokens during stall, want %d", len(evs), len(snapshot))
		} else {
			for i := range snapshot {
				if evs[i] != snapshot[i] {
					t.Errorf("retained token %d = %v during stall, want %v", i, evs[i], snapshot[i])
					break
				}
			}
		}
		close(released)
		retained.Release()
	}()

	err := ScanBatchedString(doc, batchFunc(func(b *Batch) error {
		calls++
		switch calls {
		case 1:
			b.Retain()
			retained = b
			snapshot = tokensToEvents(b)
		case batchRingSize:
			// The next flushBatch wraps onto slot 0 and must block there.
			close(stalled)
		case batchRingSize + 1:
			select {
			case <-released:
			default:
				t.Error("delivery past the ring wrap before the retained batch was released")
			}
		}
		return got.HandleBatch(b)
	}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if calls <= batchRingSize {
		t.Fatalf("scan delivered %d batches, want more than the ring size %d", calls, batchRingSize)
	}
	batchEventsEqual(t, want.Events, got.Events, "retained scan")
}

// TestScanBatchedRetainHoldsScanReturn: releaseRing is the second
// backpressure edge — a scan whose final batch is still retained cannot
// return (and cannot pool the batch's arena) until the reference is
// released. Afterwards the pools must be intact: a fresh scan sees the
// same stream.
func TestScanBatchedRetainHoldsScanReturn(t *testing.T) {
	const doc = `<a>hi</a>`
	batches := make(chan *Batch, 1)
	done := make(chan error, 1)
	go func() {
		done <- ScanBatchedString(doc, batchFunc(func(b *Batch) error {
			b.Retain()
			batches <- b
			return nil
		}), Options{})
	}()
	b := <-batches
	select {
	case err := <-done:
		t.Fatalf("scan returned (err=%v) while its final batch was still retained", err)
	case <-time.After(50 * time.Millisecond):
	}
	want := []Event{
		{Kind: StartElement, Name: "a"},
		{Kind: Text, Data: "hi"},
		{Kind: EndElement, Name: "a"},
	}
	batchEventsEqual(t, want, tokensToEvents(b), "retained final batch")
	b.Release() // b is recycled from here on: do not touch it again
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var again batchCollector
	if err := ScanBatchedString(doc, &again, Options{}); err != nil {
		t.Fatal(err)
	}
	batchEventsEqual(t, want, again.Events, "scan after release")
}
