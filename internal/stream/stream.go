// Package stream is the live-ingestion subsystem: standing queries over
// documents that arrive incrementally, as a network feed or a tailed
// pipe, instead of resting in files.
//
// The batch pipeline scans a complete document for a known set of
// queries. Streaming inverts both ends: a Hub accepts one live ingest
// per catalog document — chunks pushed with Ingest.Write, terminated by
// Close (clean end) or Abort (producer died) — and any number of
// standing Subscriptions, registered before or during the ingest, each
// receiving its query's results as matching subtrees complete rather
// than at end of document. The pieces underneath are the ones the batch
// path uses — the chunk-tolerant SAX scanner (sax.StartChunked), the
// shared-scan multiplexer in streaming mode (mux.NewStreaming), the
// per-query engine sessions — so a document ingested in chunks produces
// byte-identical per-query output to the same document served
// statically.
//
// Multicore evaluation lives here, not in the mux. An ingest runs K =
// min(GOMAXPROCS, 16) plain streaming muxes, its sub-muxes: a
// subscription joins the sub-mux that already holds its routing group
// (mux.GroupKey), else the next one round-robin, so no group spans two
// sub-muxes. The scan goroutine tokenizes once and hands every batch to
// each sub-mux's goroutine; every sub-mux steps its own path automaton
// over every token, so depth, sync points and mid-stream joins stay
// inside each mux, and groups on different sub-muxes evaluate on
// different cores. At GOMAXPROCS = 1 the one sub-mux routes inline on
// the scan goroutine. A sub-mux trails the scan by at most the
// scanner's batch ring, so a subscriber that joins mid-stream may join
// at a sync point up to that many batches before the bytes the
// producer had written when it subscribed. On 2 vCPUs, K = 2 against
// K = 1 read 844 → 1,062 MB/s on the benchmark's stream-replay workload
// (medians of 8 alternating pairs, K = 2 faster in 7).
//
// Memory stays bounded end to end. Upstream, the scanner's push mode
// buffers nothing beyond its input window: a Write blocks until the
// scan has consumed the bytes. Downstream, each subscription's results
// cross to its writer through a fixed-size ring buffer (64 KB by
// default) drained by a dedicated goroutine, so a subscriber may fall
// behind by that much without slowing anyone. Once its ring is full the
// scan waits for it — backpressure to the producer, and a pause for
// every sibling subscription — until it drains or its writer fails; a
// failed writer detaches that subscription alone and the stream
// resumes. No result byte is ever discarded. The hub sets no time bound
// on that wait: the writer's owner does (the HTTP serving tier fails a
// write that does not complete within a fixed deadline). And each
// subscription holds its
// plan's charge (flux.Catalog.Charge) in the catalog's memory gate for
// as long as it stands, recording its observed peak when it completes —
// live queries budget against batch queries, not beside them.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"flux"
	"flux/internal/engine"
	"flux/internal/mux"
	"flux/internal/sax"
)

// DefaultSubscriberBuffer is the per-subscription ring-buffer size when
// Options leaves SubscriberBuffer zero.
const DefaultSubscriberBuffer = 64 << 10

// maxSubMuxes caps an ingest's sub-muxes: beyond it, handing every
// batch to every sub-mux costs more than the added cores win for
// realistic group counts.
const maxSubMuxes = 16

// Options configures a Hub.
type Options struct {
	// SubscriberBuffer is the size in bytes of each subscription's
	// result ring buffer — the only store-and-forward memory between
	// the engine and the subscriber's writer. 0 means
	// DefaultSubscriberBuffer.
	SubscriberBuffer int
	// AttrsToSubelements applies the scanner's attribute-to-subelement
	// rewriting to ingested documents (see flux.Options).
	AttrsToSubelements bool
}

// Policy says what a subscription does when its ring buffer is full
// because its writer is slower than the stream. It has one value,
// PolicyBlock, and remains only because the benchmark module passes it
// to Subscribe; the type, the parameter and SubStats.DroppedBytes go
// together with that module's use of them.
type Policy int

// PolicyBlock parks the scan until the subscriber drains or its writer
// fails: the producer feels backpressure (its Ingest.Write blocks), and
// no result byte is ever lost.
const PolicyBlock Policy = 0

// Errors reported by hub operations.
var (
	// ErrIngestActive rejects a second concurrent ingest for the same
	// document; a document is one stream at a time.
	ErrIngestActive = errors.New("stream: an ingest is already active for this document")
	// ErrHubClosed rejects operations on a closed hub and is the
	// failure recorded on subscriptions open at Close.
	ErrHubClosed = errors.New("stream: hub closed")
)

// Hub owns the streaming state for one catalog: at most one live Ingest
// per document, plus the standing subscriptions — active ones attached
// to a running ingest, waiting ones parked until their document's next
// ingest begins. All methods are safe for concurrent use.
type Hub struct {
	cat *flux.Catalog
	opt Options

	mu      sync.Mutex
	ingests map[string]*Ingest
	waiting map[string][]*Subscription
	closed  bool
}

// NewHub returns a hub serving the catalog's documents. Stream-backed
// documents (Catalog.AddStream) exist for exactly this; file-backed
// documents may also be ingested — the stream is then a live feed of a
// document the catalog can otherwise serve statically.
func NewHub(cat *flux.Catalog, opt Options) *Hub {
	if opt.SubscriberBuffer <= 0 {
		opt.SubscriberBuffer = DefaultSubscriberBuffer
	}
	return &Hub{
		cat:     cat,
		opt:     opt,
		ingests: make(map[string]*Ingest),
		waiting: make(map[string][]*Subscription),
	}
}

// Subscribe registers a standing query against the named document,
// writing its results to w as they are produced. The query text is
// compiled through the catalog (shared schema, compiled-query cache),
// and the subscription holds its plan's charge (flux.Catalog.Charge) in
// the catalog's memory gate — Subscribe blocks while the catalog is at
// capacity, which is the admission backpressure, and returns ctx.Err()
// if ctx ends while it waits.
//
// If an ingest for the document is live, the subscription activates at
// its next sync point and observes the stream suffix from there; if
// not, it parks and activates when the document's next ingest begins.
// The subscription ends — Done closes, Stats and Err become final —
// when its stream ends, its ctx is canceled, its writer fails, or the
// hub closes. The Policy argument is PolicyBlock, its only value.
func (h *Hub) Subscribe(ctx context.Context, doc, queryText string, w io.Writer, _ Policy) (*Subscription, error) {
	q, err := h.cat.Prepare(doc, queryText)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	info, err := h.cat.Info(doc)
	if err != nil {
		return nil, err
	}
	release, err := h.cat.Admit(ctx, h.cat.Charge(doc, q))
	if err != nil {
		return nil, err
	}
	sub := &Subscription{
		hub:       h,
		doc:       info,
		query:     q,
		ctx:       ctx,
		w:         w,
		ring:      newRing(h.opt.SubscriberBuffer),
		release:   release,
		start:     time.Now(),
		done:      make(chan struct{}),
		statsDone: make(chan struct{}),
	}
	sub.mu.Lock()
	sub.stopWatch = context.AfterFunc(ctx, func() { sub.finish(engine.Stats{}, ctx.Err()) })
	sub.mu.Unlock()
	go sub.drain()

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		sub.finish(engine.Stats{}, ErrHubClosed)
		return nil, ErrHubClosed
	}
	if ing := h.ingests[doc]; ing != nil {
		// Under h.mu: serialized against the ingest's removal, so the
		// attach provably precedes EndStream and the subscription is
		// either activated or rejected — never silently lost.
		ing.attach(sub)
		h.mu.Unlock()
		return sub, nil
	}
	h.waiting[doc] = append(h.waiting[doc], sub)
	h.mu.Unlock()
	return sub, nil
}

// StartIngest opens a live stream for the named document and returns
// the Ingest the producer feeds. Subscriptions parked for the document
// attach before the first byte; later ones join mid-stream. One ingest
// per document at a time.
//
// The ingest evaluates its subscriptions on K = min(GOMAXPROCS, 16)
// streaming muxes, each routing on its own goroutine; at GOMAXPROCS = 1
// the one mux routes inline on the scan goroutine (see the package
// comment).
func (h *Hub) StartIngest(ctx context.Context, doc string) (*Ingest, error) {
	// Forces registration and DTD parsing now: a stream against a bad
	// schema fails before any byte arrives.
	if _, err := h.cat.Schema(doc); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ing := &Ingest{
		hub:   h,
		doc:   doc,
		muxes: make([]*mux.Mux, min(runtime.GOMAXPROCS(0), maxSubMuxes)),
		place: make(map[string]int),
		subs:  make(map[slotRef]*Subscription),
		dead:  make(chan struct{}),
	}
	for i := range ing.muxes {
		m := mux.NewStreaming()
		m.OnDetach(func(slot int, err error) {
			// Runs on the goroutine routing this sub-mux, right after the
			// slot's Result was recorded: the subscription ends now,
			// mid-stream, not at end of document. Subscription.finish is
			// Once-guarded and safe off the scan goroutine.
			ing.mu.Lock()
			sub := ing.subs[slotRef{i, slot}]
			ing.mu.Unlock()
			if sub != nil {
				sub.finish(m.ResultAt(slot).Stats, err)
			}
		})
		if err := m.BeginStream(); err != nil {
			return nil, err
		}
		ing.muxes[i] = m
	}
	var bh sax.BatchHandler = ing.muxes[0]
	if len(ing.muxes) > 1 {
		ing.fan = newFanout(ing.muxes)
		bh = ing.fan
	}
	ing.cs = sax.StartChunked(ctx, bh, sax.Options{
		SkipWhitespaceText: true,
		AttrsToSubelements: h.opt.AttrsToSubelements,
	})

	// Publish only a started ingest: Close may abort anything in
	// h.ingests at once. No byte has been written yet, so parked
	// subscriptions attached here still join at the first sync point,
	// before the root.
	h.mu.Lock()
	var err error
	switch {
	case h.closed:
		err = ErrHubClosed
	case h.ingests[doc] != nil:
		err = fmt.Errorf("%w: %q", ErrIngestActive, doc)
	default:
		h.ingests[doc] = ing
		parked := h.waiting[doc]
		delete(h.waiting, doc)
		for _, sub := range parked {
			ing.attach(sub)
		}
	}
	h.mu.Unlock()
	if err != nil {
		ing.Abort(err)
		return nil, err
	}
	return ing, nil
}

// drop removes the ingest from the active table if still there.
func (h *Hub) drop(ing *Ingest) {
	h.mu.Lock()
	if h.ingests[ing.doc] == ing {
		delete(h.ingests, ing.doc)
	}
	h.mu.Unlock()
}

// Close shuts the hub down: waiting subscriptions are rejected and
// every live ingest is aborted, which unwinds its scan, detaches its
// subscriptions (each Done closes with ErrHubClosed), and unblocks any
// producer parked in Write. Subsequent hub operations fail with
// ErrHubClosed.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	ings := make([]*Ingest, 0, len(h.ingests))
	for _, ing := range h.ingests {
		ings = append(ings, ing)
	}
	h.ingests = make(map[string]*Ingest)
	var parked []*Subscription
	for _, subs := range h.waiting {
		parked = append(parked, subs...)
	}
	h.waiting = make(map[string][]*Subscription)
	h.mu.Unlock()

	for _, sub := range parked {
		sub.finish(engine.Stats{}, ErrHubClosed)
	}
	for _, ing := range ings {
		ing.Abort(ErrHubClosed)
	}
}

// HubStats is a point-in-time summary of the hub.
type HubStats struct {
	// ActiveIngests names the documents with a live ingest, sorted by
	// map order (callers wanting determinism sort it).
	ActiveIngests []string `json:"active_ingests"`
	// WaitingSubscriptions counts subscriptions parked for a document
	// with no live ingest.
	WaitingSubscriptions int `json:"waiting_subscriptions"`
}

// Stats reports the hub's current state.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HubStats{}
	for doc := range h.ingests {
		st.ActiveIngests = append(st.ActiveIngests, doc)
	}
	for _, subs := range h.waiting {
		st.WaitingSubscriptions += len(subs)
	}
	return st
}
