package stream

import (
	"io"
	"sync"

	"flux/internal/engine"
	"flux/internal/mux"
	"flux/internal/sax"
)

// Ingest is one live document stream: the producer pushes the document
// bytes in arbitrary chunks with Write and ends the stream with Close
// (the document is complete) or Abort (the producer died mid-document).
// An Ingest is single-use and its Write side is single-goroutine; Abort
// may be called from any goroutine.
type Ingest struct {
	hub *Hub
	doc string
	m   *mux.Mux
	cs  *sax.ChunkScanner

	mu   sync.Mutex
	subs map[int]*Subscription // mux slot -> activated subscription

	endOnce sync.Once
	dead    chan struct{} // closed by Close/Abort, whoever ends it
	cause   error         // written inside endOnce, read after dead
}

// attach enqueues sub on the stream. Called with hub.mu held, which
// orders it strictly before the ingest's EndStream.
func (ing *Ingest) attach(sub *Subscription) {
	err := ing.m.AttachStream(sub.ctx, sub.query.Plan(), sub.ring, func(slot int, err error) {
		if slot >= 0 {
			// Record the slot first: a later detach of this slot (even
			// the immediate one below, on this same goroutine) must
			// find the subscription.
			ing.mu.Lock()
			ing.subs[slot] = sub
			ing.mu.Unlock()
		}
		if err != nil {
			sub.finish(statsAt(ing.m, slot), err)
		}
	})
	if err != nil {
		// The stream ended before the subscription could even enqueue
		// (hub.mu ordering makes this unreachable today, but the mux API
		// allows it); the done callback was not and will not be called.
		sub.finish(engine.Stats{}, err)
	}
}

// Doc names the document this ingest feeds.
func (ing *Ingest) Doc() string { return ing.doc }

// Write pushes the next chunk of the document into the stream. It
// blocks until the scan has consumed the bytes — and transitively,
// under PolicyBlock, until every subscriber has ring space — so the
// producer is throttled by its slowest blocking consumer rather than
// buffering unboundedly. A Write after the stream has failed returns
// the failure.
func (ing *Ingest) Write(p []byte) (int, error) { return ing.cs.Write(p) }

// Close declares the document complete: it waits for the scan to drain
// every pushed byte, runs end-of-document finalization for every live
// subscription (validation of the whole stream included), distributes
// final stats, and returns the stream's result — nil only for a
// well-formed, fully processed document.
func (ing *Ingest) Close() error {
	ing.hub.drop(ing)
	return ing.end(ing.cs.Close())
}

// Abort ends the stream without a well-formed end of input — the
// producer's connection dropped, the server is shutting down. Open
// subscriptions fail with the scan's resulting error (their validation
// cannot complete), blocked ring writes are released, and the cause is
// preserved in the returned error.
func (ing *Ingest) Abort(cause error) error {
	ing.hub.drop(ing)
	// Release any scan-side ring write parked on a full buffer: the
	// session behind it must fail so the scan can unwind, rather than
	// deadlocking against a subscriber that stopped draining.
	ing.mu.Lock()
	for _, sub := range ing.subs {
		sub.ring.closeRead(cause)
	}
	ing.mu.Unlock()
	return ing.end(ing.cs.Abort(cause))
}

// end finishes the stream exactly once, after the scan goroutine has
// exited (Close and Abort both wait for it): it distributes the final
// Results, records the outcome, and closes Dead. A producer's Abort
// racing a hub Close both arrive here; the second waits for the first
// and returns its outcome.
func (ing *Ingest) end(err error) error {
	ing.endOnce.Do(func() {
		ing.finishAll(err)
		ing.cause = err
		close(ing.dead)
	})
	return ing.cause
}

// Dead returns a channel closed once the stream has ended — by the
// producer's own Close or Abort, or from elsewhere (hub shutdown). A
// producer blocked feeding the ingest from another source selects on it
// to notice asynchronous teardown.
func (ing *Ingest) Dead() <-chan struct{} { return ing.dead }

// Err reports why the stream ended: nil for a clean Close, the failure
// otherwise. It returns nil while the stream is still live — meaningful
// once Dead is closed.
func (ing *Ingest) Err() error {
	select {
	case <-ing.dead:
		return ing.cause
	default:
		return nil
	}
}

// finishAll ends the stream on the mux and distributes each activated
// subscription's final Result. Runs once, from end, with the mux
// quiescent.
func (ing *Ingest) finishAll(streamErr error) {
	results := ing.m.EndStream(streamErr)
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for slot, sub := range ing.subs {
		res := results[slot]
		sub.finish(res.Stats, res.Err)
	}
}

// Events reports the number of SAX events the shared scan tokenized.
// Meaningful after Close or Abort.
func (ing *Ingest) Events() int64 { return ing.m.Events() }

// statsAt guards ResultAt against the rejected-before-activation case,
// where no slot was ever assigned.
func statsAt(m *mux.Mux, slot int) engine.Stats {
	if slot >= 0 {
		return m.ResultAt(slot).Stats
	}
	return engine.Stats{}
}

// io.Writer conformance for the producer side.
var _ io.Writer = (*Ingest)(nil)
