package flux

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"flux/internal/dtd"
	"flux/internal/fsutil"
)

// Catalog is a concurrency-safe registry of named documents, each bound
// to a DTD, backing multi-document serving: fluxd routes requests by
// document name, and any embedder can treat a corpus of XML files as a
// managed, queryable collection instead of a single stream.
//
// Schemas parse lazily — registering a document costs nothing until its
// first query — and parse results (including failures) are cached per
// distinct DTD text, so documents sharing a DTD share one parsed schema.
// Compiled queries are cached in a bounded LRU keyed by (schema, query
// text): repeated Prepare calls for the same query against the same
// schema are free, and CacheStats exports hit/miss/eviction counters.
//
// Swap atomically repoints a document at a new file: batches already
// scanning the old file complete against it (they hold an open file
// handle), while every later request opens the new one.
//
// The catalog is also the process's one memory gate for query buffers:
// Admit holds the queries over its documents to the
// CatalogOptions.MaxResidentBufferBytes budget, queueing (not
// rejecting) work that exceeds it, and Charge prices each query at the
// peak a run of its plan was observed to buffer on the document (the
// static prediction until one has completed). The Executor admits every
// query through it before the query joins a batch, and the streaming
// hub every standing subscription; embedders running their own scans
// may do the same.
type Catalog struct {
	mu      sync.RWMutex
	docs    map[string]*catalogDoc
	schemas map[string]*schemaEntry // keyed by exact DTD text

	cache *queryCache
	adm   *admission
}

// catalogDoc is the registry entry for one named document. The path is
// swapped atomically under the catalog lock; the name and schema are
// fixed at Add time. Stream-backed documents (AddStream) have no path:
// their bytes arrive through the streaming hub, so Open fails for them
// while Prepare, Schema, DTD, and admission work unchanged.
type catalogDoc struct {
	name   string
	path   string
	schema *schemaEntry
	swaps  int64 // completed hot-swaps
	stream bool  // registered by AddStream; no file binding

	// peaks maps a plan signature key to the largest peak buffer bytes
	// a completed run observed on the current version of the document:
	// the price Charge quotes. peakMu guards it, under the catalog's
	// read lock; Swap clears it under the write lock.
	peakMu sync.Mutex
	peaks  map[string]int64
}

// schemaEntry parses one DTD text at most once, on first use.
type schemaEntry struct {
	dtdText string
	once    sync.Once
	schema  *dtd.Schema
	err     error
}

func (se *schemaEntry) get() (*dtd.Schema, error) {
	se.once.Do(func() {
		se.schema, se.err = dtd.Parse(se.dtdText)
	})
	return se.schema, se.err
}

// DefaultQueryCacheCap bounds the compiled-query cache when CatalogOptions
// leaves QueryCacheCap zero.
const DefaultQueryCacheCap = 256

// CatalogOptions configures a Catalog.
type CatalogOptions struct {
	// QueryCacheCap bounds the compiled-query LRU cache; 0 means
	// DefaultQueryCacheCap, negative disables caching.
	QueryCacheCap int
	// MaxResidentBufferBytes is the process's one memory bound, B: the
	// summed charge (see Charge — the observed peak of each query's plan
	// on its document, or the static prediction before one) of all
	// admitted queries across every document. A query that would push
	// the total over B queues until capacity frees, before it joins a
	// batch, so every shared scan holds only admitted queries. Fully
	// streaming queries (charge 0) are never blocked. A single query
	// charging more than B is admitted only when nothing else is
	// resident, so oversized work degrades to serial execution instead
	// of deadlocking. Values <= 0 mean unlimited.
	MaxResidentBufferBytes int64
}

// NewCatalog returns an empty catalog.
func NewCatalog(opt CatalogOptions) *Catalog {
	cap := opt.QueryCacheCap
	if cap == 0 {
		cap = DefaultQueryCacheCap
	}
	return &Catalog{
		docs:    make(map[string]*catalogDoc),
		schemas: make(map[string]*schemaEntry),
		cache:   newQueryCache(cap),
		adm:     &admission{maxBytes: opt.MaxResidentBufferBytes},
	}
}

// errors reported by catalog operations.
var (
	ErrDocNotFound = errors.New("flux: document not registered in catalog")
	ErrDocExists   = errors.New("flux: document already registered in catalog")
	// ErrDocStreamBacked rejects file operations (Open, Swap) on a
	// document registered with AddStream: its bytes live in the stream
	// that feeds it, not in any file.
	ErrDocStreamBacked = errors.New("flux: document is stream-backed; it has no file binding")
)

// Add registers a document under name, bound to dtdText. The document
// file must exist and be a readable regular file; the DTD is not parsed
// until the document's first query (lazy schema parsing).
func (c *Catalog) Add(name, docPath, dtdText string) error {
	if name == "" {
		return errors.New("flux: catalog document name must be non-empty")
	}
	if err := fsutil.CheckRegularFile(docPath); err != nil {
		return fmt.Errorf("flux: document %q: %w", name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.docs[name]; ok {
		return fmt.Errorf("%w: %q", ErrDocExists, name)
	}
	se, ok := c.schemas[dtdText]
	if !ok {
		se = &schemaEntry{dtdText: dtdText}
		c.schemas[dtdText] = se
	}
	c.docs[name] = &catalogDoc{name: name, path: docPath, schema: se}
	return nil
}

// AddStream registers a stream-backed document under name, bound to
// dtdText: a document whose bytes arrive through live ingestion (see
// internal/stream) rather than from a file. Everything schema-shaped
// works exactly as for a file-backed document — Prepare compiles and
// caches queries against the shared parsed schema, DTD ships the exact
// text, admission charges scans — but there is nothing to Open or Swap.
func (c *Catalog) AddStream(name, dtdText string) error {
	if name == "" {
		return errors.New("flux: catalog document name must be non-empty")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.docs[name]; ok {
		return fmt.Errorf("%w: %q", ErrDocExists, name)
	}
	se, ok := c.schemas[dtdText]
	if !ok {
		se = &schemaEntry{dtdText: dtdText}
		c.schemas[dtdText] = se
	}
	c.docs[name] = &catalogDoc{name: name, schema: se, stream: true}
	return nil
}

// Swap atomically repoints the named document at path (hot-swap). The
// new file is stat-checked before the switch; on any error the old
// binding stays in place. In-flight scans of the old file complete
// against it, new requests see the new file, and the document's DTD,
// schema, and cached compiled queries are unchanged. The observed peaks
// Charge quotes described the old file, so they are dropped.
func (c *Catalog) Swap(name, path string) error {
	if err := fsutil.CheckRegularFile(path); err != nil {
		return fmt.Errorf("flux: swap %q: %w", name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.docs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrDocNotFound, name)
	}
	if d.stream {
		return fmt.Errorf("flux: swap %q: %w", name, ErrDocStreamBacked)
	}
	d.path = path
	d.swaps++
	clear(d.peaks)
	return nil
}

// Remove unregisters the named document. A schema no other document
// references is dropped with it, so cycling documents through
// Add/Remove does not grow the registry without bound; that schema's
// cached compiled queries age out of the bounded LRU.
func (c *Catalog) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.docs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrDocNotFound, name)
	}
	delete(c.docs, name)
	for _, other := range c.docs {
		if other.schema == d.schema {
			return nil
		}
	}
	delete(c.schemas, d.schema.dtdText)
	return nil
}

// Docs lists the registered document names, sorted.
func (c *Catalog) Docs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.docs))
	for n := range c.docs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DocInfo describes one registered document.
type DocInfo struct {
	// Name is the registry key.
	Name string `json:"name"`
	// Path is the file currently bound to the name.
	Path string `json:"path"`
	// Swaps counts completed hot-swaps since registration.
	Swaps int64 `json:"swaps"`
	// Stream marks a stream-backed document (AddStream): Path is empty
	// and Open/Swap are rejected.
	Stream bool `json:"stream,omitempty"`
}

// Info reports the named document's current binding.
func (c *Catalog) Info(name string) (DocInfo, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[name]
	if !ok {
		return DocInfo{}, fmt.Errorf("%w: %q", ErrDocNotFound, name)
	}
	return DocInfo{Name: d.name, Path: d.path, Swaps: d.swaps, Stream: d.stream}, nil
}

// DTD returns the exact DTD text the named document was registered
// with — what a migration ships alongside the document bytes so the
// receiving catalog binds the copy to the identical schema.
func (c *Catalog) DTD(name string) (string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrDocNotFound, name)
	}
	return d.schema.dtdText, nil
}

// Schema returns the named document's parsed schema, parsing the DTD on
// first use.
func (c *Catalog) Schema(name string) (*dtd.Schema, error) {
	c.mu.RLock()
	d, ok := c.docs[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrDocNotFound, name)
	}
	return d.schema.get()
}

// Open returns a reader over the file currently bound to name. The
// caller owns the returned file; a concurrent Swap does not disturb it —
// that is what makes hot-swap safe for in-flight scans.
func (c *Catalog) Open(name string) (*os.File, error) {
	c.mu.RLock()
	d, ok := c.docs[name]
	var path string
	if ok {
		path = d.path
	}
	stream := ok && d.stream
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrDocNotFound, name)
	}
	if stream {
		return nil, fmt.Errorf("flux: open %q: %w", name, ErrDocStreamBacked)
	}
	return os.Open(path)
}

// Prepare compiles queryText against the named document's schema,
// serving repeated compilations from the catalog's compiled-query cache.
// Cached queries are shared — a *Query is stateless after preparation,
// so one compiled query may execute concurrently for many callers.
func (c *Catalog) Prepare(name, queryText string) (*Query, error) {
	c.mu.RLock()
	d, ok := c.docs[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrDocNotFound, name)
	}
	schema, err := d.schema.get()
	if err != nil {
		return nil, fmt.Errorf("flux: document %q DTD: %w", name, err)
	}
	if q, ok := c.cache.get(schema, queryText); ok {
		return q, nil
	}
	q, err := PrepareWithSchema(queryText, schema)
	if err != nil {
		return nil, err
	}
	c.cache.put(schema, queryText, q)
	return q, nil
}

// CacheStats reports the compiled-query cache counters.
func (c *Catalog) CacheStats() CacheStats { return c.cache.stats() }

// --- compiled-query cache ------------------------------------------------

// CacheStats are the compiled-query cache counters exported by a
// Catalog: hits and misses measure how often Prepare was free, evictions
// how often the LRU bound displaced a compiled query.
type CacheStats struct {
	// Hits counts Prepare calls served from the cache.
	Hits int64 `json:"hits"`
	// Misses counts Prepare calls that had to compile.
	Misses int64 `json:"misses"`
	// Evictions counts compiled queries displaced by the LRU bound.
	Evictions int64 `json:"evictions"`
	// Size is the number of compiled queries currently cached.
	Size int `json:"size"`
}

// cacheKey identifies a compiled query: the schema pointer (schemas are
// deduplicated per DTD text, so pointer identity equals DTD identity)
// plus the exact query text.
type cacheKey struct {
	schema *dtd.Schema
	query  string
}

// queryCache is a bounded LRU of compiled queries.
type queryCache struct {
	mu    sync.Mutex
	cap   int
	items map[cacheKey]*list.Element
	order *list.List // front = most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheItem struct {
	key cacheKey
	q   *Query
}

func newQueryCache(cap int) *queryCache {
	qc := &queryCache{cap: cap}
	if cap > 0 {
		qc.items = make(map[cacheKey]*list.Element, cap)
		qc.order = list.New()
	}
	return qc
}

func (qc *queryCache) get(schema *dtd.Schema, query string) (*Query, bool) {
	if qc.cap <= 0 {
		// A disabled cache reports zero counters rather than a climbing
		// miss count an operator would misread as a 0% hit rate.
		return nil, false
	}
	qc.mu.Lock()
	defer qc.mu.Unlock()
	el, ok := qc.items[cacheKey{schema, query}]
	if !ok {
		qc.misses.Add(1)
		return nil, false
	}
	qc.order.MoveToFront(el)
	qc.hits.Add(1)
	return el.Value.(*cacheItem).q, true
}

func (qc *queryCache) put(schema *dtd.Schema, query string, q *Query) {
	if qc.cap <= 0 {
		return
	}
	qc.mu.Lock()
	defer qc.mu.Unlock()
	key := cacheKey{schema, query}
	if el, ok := qc.items[key]; ok {
		qc.order.MoveToFront(el)
		el.Value.(*cacheItem).q = q
		return
	}
	qc.items[key] = qc.order.PushFront(&cacheItem{key: key, q: q})
	if qc.order.Len() > qc.cap {
		oldest := qc.order.Back()
		qc.order.Remove(oldest)
		delete(qc.items, oldest.Value.(*cacheItem).key)
		qc.evictions.Add(1)
	}
}

func (qc *queryCache) stats() CacheStats {
	st := CacheStats{
		Hits:      qc.hits.Load(),
		Misses:    qc.misses.Load(),
		Evictions: qc.evictions.Load(),
	}
	if qc.cap > 0 {
		qc.mu.Lock()
		st.Size = qc.order.Len()
		qc.mu.Unlock()
	}
	return st
}

// --- the memory gate -----------------------------------------------------

// maxPeakSigs bounds each document's table of observed peaks; at the cap
// the table is dropped whole, as the Executor's automaton cache is. A
// workload with that many distinct plan shapes against one document has
// few repeats to price exactly anyway, and a cleared signature is charged
// its static prediction until its next completed run.
const maxPeakSigs = 256

// Charge is the memory gate's one pricing rule: the query buffer bytes
// admission charges for one run of q over doc. Once a run of q's plan signature has completed on
// the document's current version (see ObservePeak), the charge is the
// largest peak such a run buffered — buffering is deterministic for a
// given plan and document, so that is exact. Before, and after every
// Swap, it is the plan's static prediction
// (BufferReport.PredictedPeakBytes).
func (c *Catalog) Charge(doc string, q *Query) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if d, ok := c.docs[doc]; ok {
		d.peakMu.Lock()
		peak, seen := d.peaks[q.plan.SigKey()]
		d.peakMu.Unlock()
		if seen {
			return peak
		}
	}
	return q.plan.PredictedPeakBytes()
}

// ObservePeak records the peak buffer bytes one completed run of a plan
// with signature key sig (Plan.SigKey) observed over doc, the document
// version as Info reported it before the run opened it. Later charges
// for the signature on that version are the largest peak recorded. An
// observation of a version a Swap (or a Remove) has since replaced is
// dropped: it describes a file later scans will not read. The Executor
// and the streaming hub record every successful run; failed or canceled
// runs observe a truncated peak and must not be recorded.
func (c *Catalog) ObservePeak(doc DocInfo, sig string, observed int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[doc.Name]
	if !ok || d.swaps != doc.Swaps || d.path != doc.Path {
		return
	}
	d.peakMu.Lock()
	defer d.peakMu.Unlock()
	prev, seen := d.peaks[sig]
	if seen && prev >= observed {
		return
	}
	if d.peaks == nil || !seen && len(d.peaks) >= maxPeakSigs {
		d.peaks = make(map[string]int64)
	}
	d.peaks[sig] = observed
}

// admission is the catalog's byte budget for resident query buffers
// with a FIFO wait queue. Admission is starvation-free: a query that
// charges bytes may not barge past an older waiter that does not fit,
// so the capacity an oversized waiter needs eventually drains to it.
type admission struct {
	mu       sync.Mutex
	maxBytes int64

	bytes  int64
	active int64
	queue  []*admitWaiter // FIFO; only unadmitted waiters

	queued   int64 // cumulative queries that had to wait
	admitted int64 // cumulative admitted queries
}

// admitWaiter is one query waiting for admission.
type admitWaiter struct {
	bytes int64
	ready chan struct{} // closed when capacity has been reserved
}

// fits reports whether a query charging bytes fits the budget now. A
// zero charge always fits — a fully streaming query adds nothing resident —
// and a charge over the whole budget fits when nothing is resident, so
// oversized work runs alone rather than never. Caller holds a.mu.
func (a *admission) fits(bytes int64) bool {
	return bytes == 0 || a.bytes == 0 || a.bytes+bytes <= a.maxBytes
}

// reserve takes capacity for an admitted query. Caller holds a.mu.
func (a *admission) reserve(bytes int64) {
	a.bytes += bytes
	a.active++
	a.admitted++
}

// drain admits queued waiters in FIFO order. The first waiter that does
// not fit blocks every younger waiter that charges bytes — that is what
// rules out starvation — while zero-charge waiters still pass. Caller
// holds a.mu.
func (a *admission) drain() {
	blocked := false
	rest := a.queue[:0]
	for _, w := range a.queue {
		if (!blocked || w.bytes == 0) && a.fits(w.bytes) {
			a.reserve(w.bytes)
			close(w.ready)
			continue
		}
		blocked = true
		rest = append(rest, w)
	}
	clear(a.queue[len(rest):])
	a.queue = rest
}

// Admit blocks until a query charging bytes of query buffer — its
// Charge — fits the catalog's MaxResidentBufferBytes budget, then
// reserves the bytes and returns the release function that frees them.
// Waiters are served in FIFO order and a query that charges bytes
// cannot barge past an older waiter, so every query — including one
// charging more than the whole budget, which runs alone — is admitted
// eventually. If ctx ends first, the query leaves the queue and Admit
// returns ctx.Err() with nothing reserved. Release must be called when
// the query's run ends; calling it more than once is safe. With no
// budget configured Admit admits immediately and only maintains
// counters.
func (c *Catalog) Admit(ctx context.Context, bytes int64) (release func(), err error) {
	a := c.adm
	a.mu.Lock()
	if a.maxBytes <= 0 {
		a.reserve(bytes)
		a.mu.Unlock()
		return a.releaseFunc(bytes), nil
	}
	w := &admitWaiter{bytes: bytes, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.drain()
	select {
	case <-w.ready:
		a.mu.Unlock()
		return a.releaseFunc(bytes), nil
	default:
		a.queued++
	}
	a.mu.Unlock()
	select {
	case <-w.ready: // capacity is reserved on our behalf before the close
	case <-ctx.Done():
		a.mu.Lock()
		defer a.mu.Unlock()
		select {
		case <-w.ready: // admitted as ctx ended: the capacity is ours
		default:
			a.queue = slices.DeleteFunc(a.queue, func(x *admitWaiter) bool { return x == w })
			// A blocked waiter leaving may unblock the younger ones.
			a.drain()
			return nil, ctx.Err()
		}
	}
	return a.releaseFunc(bytes), nil
}

// releaseFunc builds the idempotent release closure for one admitted
// query: it returns the query's bytes and drains the wait queue.
func (a *admission) releaseFunc(bytes int64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.bytes -= bytes
			a.active--
			a.drain()
			a.mu.Unlock()
		})
	}
}

// AdmissionStats are the catalog's query-admission counters.
type AdmissionStats struct {
	// Active is the number of currently admitted queries.
	Active int64 `json:"active"`
	// ResidentBufferBytes is the summed charge (see Charge) of the
	// currently admitted queries.
	ResidentBufferBytes int64 `json:"resident_buffer_bytes"`
	// Waiting is the number of queries currently queued for admission.
	Waiting int64 `json:"waiting"`
	// Queued is the cumulative number of queries that had to wait before
	// being admitted.
	Queued int64 `json:"queued"`
	// Admitted is the cumulative number of admitted queries.
	Admitted int64 `json:"admitted"`
}

// AdmissionStats reports the catalog's query-admission counters.
func (c *Catalog) AdmissionStats() AdmissionStats {
	a := c.adm
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		Active:              a.active,
		ResidentBufferBytes: a.bytes,
		Waiting:             int64(len(a.queue)),
		Queued:              a.queued,
		Admitted:            a.admitted,
	}
}
