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
//
// The scan feeds K sub-muxes (see Hub.StartIngest), each a plain
// streaming mux holding a disjoint share of the routing groups. With
// K = 1 the one sub-mux routes inline on the scan goroutine; otherwise
// a fanout hands every batch to each sub-mux's own goroutine.
type Ingest struct {
	hub   *Hub
	doc   string
	muxes []*mux.Mux
	fan   *fanout // nil when len(muxes) == 1
	cs    *sax.ChunkScanner

	// place maps a routing group's key (mux.GroupKey) to the sub-mux
	// that holds it, and next is the round-robin cursor for new keys.
	// Both are touched only by attach, under hub.mu.
	place map[string]int
	next  int

	mu   sync.Mutex
	subs map[slotRef]*Subscription // activated subscriptions

	endOnce sync.Once
	dead    chan struct{} // closed by Close/Abort, whoever ends it
	cause   error         // written inside endOnce, read after dead
}

// slotRef names a subscription's slot: the sub-mux and the slot index
// within it.
type slotRef struct{ mux, slot int }

// fanout is the scan's BatchHandler when an ingest has several
// sub-muxes. It retains each batch once per sub-mux and queues it to
// that sub-mux's goroutine, which routes the batch and releases it. A
// retained batch holds its slot in the scanner's batch ring, so a
// sub-mux that falls behind stalls the scan — and through it the
// producer's Write — once the ring is full; the queues, sized to the
// ring's four batches, never block.
type fanout struct {
	queues []chan *sax.Batch
	wg     sync.WaitGroup
}

// newFanout starts one goroutine per sub-mux, routing the batches
// queued to it until stop.
func newFanout(muxes []*mux.Mux) *fanout {
	f := &fanout{queues: make([]chan *sax.Batch, len(muxes))}
	f.wg.Add(len(muxes))
	for i, m := range muxes {
		q := make(chan *sax.Batch, 4)
		f.queues[i] = q
		go func() {
			defer f.wg.Done()
			for b := range q {
				m.HandleBatch(b) // a streaming mux fails slots, never the batch
				b.Release()
			}
		}()
	}
	return f
}

// HandleBatch implements sax.BatchHandler on the scan goroutine.
func (f *fanout) HandleBatch(b *sax.Batch) error {
	for _, q := range f.queues {
		b.Retain()
		q <- b
	}
	return nil
}

// stop closes the queues and waits until every sub-mux has routed its
// last batch. Called once the scan goroutine has exited.
func (f *fanout) stop() {
	for _, q := range f.queues {
		close(q)
	}
	f.wg.Wait()
}

// attach enqueues sub on the sub-mux that already holds its routing
// group, or on the next sub-mux round-robin, so no group spans two
// sub-muxes. Called with hub.mu held, which serializes placement and
// orders the attach strictly before the ingest's EndStream.
func (ing *Ingest) attach(sub *Subscription) {
	plan := sub.query.Plan()
	key := mux.GroupKey(plan)
	i, ok := ing.place[key]
	if !ok {
		i = ing.next % len(ing.muxes)
		ing.next++
		ing.place[key] = i
	}
	m := ing.muxes[i]
	err := m.AttachStream(sub.ctx, plan, sub.ring, func(slot int, err error) {
		if slot >= 0 {
			// Record the slot first: a later detach of this slot (even
			// the immediate one below, on this same goroutine) must
			// find the subscription.
			ing.mu.Lock()
			ing.subs[slotRef{i, slot}] = sub
			ing.mu.Unlock()
		}
		if err != nil {
			sub.finish(statsAt(m, slot), err)
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
// blocks until the scan has consumed the bytes — and transitively until
// every subscriber has ring space — so the producer is throttled by its
// slowest subscriber rather than buffering unboundedly. A subscriber
// whose ring is full stalls this Write until it drains or its writer
// fails and detaches it; the hub itself sets no time bound. A Write
// after the stream has failed returns the failure.
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

// finishAll joins the sub-mux goroutines, ends the stream on every
// sub-mux and distributes each activated subscription's final Result.
// Runs once, from end, after the scan goroutine has exited.
func (ing *Ingest) finishAll(streamErr error) {
	if ing.fan != nil {
		ing.fan.stop()
	}
	// EndStream may call back into attach's done and OnDetach, which take
	// ing.mu: end every sub-mux before locking.
	results := make([][]mux.Result, len(ing.muxes))
	for i, m := range ing.muxes {
		results[i] = m.EndStream(streamErr)
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for ref, sub := range ing.subs {
		res := results[ref.mux][ref.slot]
		sub.finish(res.Stats, res.Err)
	}
}

// Events reports the number of SAX events the shared scan tokenized.
// Meaningful after Close or Abort.
func (ing *Ingest) Events() int64 { return ing.muxes[0].Events() }

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
