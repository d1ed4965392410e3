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
// Memory stays bounded end to end. Upstream, the scanner's push mode
// buffers nothing beyond its input window: a Write blocks until the
// scan has consumed the bytes. Downstream, each subscription's results
// cross to its writer through a fixed-size ring buffer drained by a
// dedicated goroutine, so one slow subscriber never stalls its
// siblings' deliveries; what happens when the ring fills is the
// subscription's Policy — block the scan (backpressure to the producer)
// or drop the overflow with a counter. And each subscription holds its
// plan's charge (flux.Catalog.Charge) in the catalog's memory gate for
// as long as it stands, recording its observed peak when it completes —
// live queries budget against batch queries, not beside them.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
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
// because its writer is slower than the stream.
type Policy int

const (
	// PolicyBlock parks the scan until the subscriber drains: the
	// producer feels backpressure (its Ingest.Write blocks), and no
	// result byte is ever lost. The default.
	PolicyBlock Policy = iota
	// PolicyDrop discards result bytes that do not fit and counts them
	// in SubStats.DroppedBytes: the stream never stalls, but a slow
	// subscriber's output has holes exactly where the counter says.
	PolicyDrop
)

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
// hub closes.
func (h *Hub) Subscribe(ctx context.Context, doc, queryText string, w io.Writer, pol Policy) (*Subscription, error) {
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
		ring:      newRing(h.opt.SubscriberBuffer, pol),
		release:   release,
		start:     time.Now(),
		done:      make(chan struct{}),
		statsDone: make(chan struct{}),
	}
	go sub.drain()
	go sub.watchCtx()

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
// On a multicore host the ingest's subscriptions are evaluated on the
// streaming mux's worker pool (mux.NewStreaming): the scan goroutine
// keeps tokenizing and routing while subscription engine work runs on
// other cores, and a slow subscription group stalls the producer only
// through the pipeline's backpressure.
func (h *Hub) StartIngest(ctx context.Context, doc string) (*Ingest, error) {
	// Forces registration and DTD parsing now: a stream against a bad
	// schema fails before any byte arrives.
	if _, err := h.cat.Schema(doc); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := mux.NewStreaming()
	ing := &Ingest{hub: h, doc: doc, m: m, subs: make(map[int]*Subscription), dead: make(chan struct{})}
	m.OnDetach(func(slot int, err error) {
		// Runs on the scan goroutine — or on the worker pool's goroutine
		// that owns the slot's routing group — right after the slot's
		// Result was recorded: the subscription ends now, mid-stream, not
		// at end of document. Subscription.finish is Once-guarded and
		// safe off the scan goroutine.
		ing.mu.Lock()
		sub := ing.subs[slot]
		ing.mu.Unlock()
		if sub != nil {
			sub.finish(m.ResultAt(slot).Stats, err)
		}
	})
	if err := m.BeginStream(); err != nil {
		return nil, err
	}
	ing.cs = sax.StartChunked(ctx, m, sax.Options{
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
