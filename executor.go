package flux

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flux/internal/autom"
	"flux/internal/engine"
	"flux/internal/mux"
	"flux/internal/sax"
)

// Executor batches concurrent query executions onto shared scans of
// catalog documents. It is the serving core behind fluxd, usable by any
// embedder: callers submit (document, query) pairs and block while the
// result streams to their writer; executions against the same document
// that arrive within one batch window (or until MaxBatch fills) run in
// a single pass of that document — the scan is tokenized once and its
// SAX events fan out to the whole batch.
//
// The window only gathers under load. The Executor counts the requests
// it holds, from admission until each one's outcome is delivered;
// while that count is at most runtime.GOMAXPROCS(0), a request for a
// document with no open batch dispatches at once, as a batch of one. A
// shared scan routes inline on one goroutine, so while queries do not
// outnumber processors each can have a processor of its own, and
// sharing would only save CPU that sits idle. Once they do outnumber
// processors, requests gather in the document's batch and leave on the
// window or on MaxBatch. The signal is requests held, not scans in
// flight: in a closed loop every finished batch briefly lowers the
// number of running scans, and gating on that would send the first
// caller to come back off alone and fragment batches at saturation.
//
// Fan-out is selective: plans are partitioned by their projected-path
// signature into event-routing groups, and a subtree no path of a
// group's signature can match is skipped for that group in a single
// step, so each query of a wide batch is delivered only the events its
// projection can reach (DocStats.EventsSkipped counts the rest).
// Routing decisions are made by one merged path automaton per batch
// (internal/autom), compiled once per distinct set of routing groups
// and cached — a machine depends only on its groups, so documents
// sharing a schema share machines and a swap keeps them;
// DocStats.AutomatonHits counts cache reuse. The interior of a subtree
// a query ignores is not validated against its DTD; RunAll keeps
// all-fanout delivery and with it full per-query validation.
//
// Memory is bounded by the catalog's one gate, query by query: each
// query is charged Catalog.Charge — the peak its plan buffered on the
// last completed run over the document, or the static prediction before
// one — and admitted through Catalog.Admit before it joins a batch, so
// the charges of every query resident in the process, gathering or
// scanning, stay within CatalogOptions.MaxResidentBufferBytes unless
// one query alone exceeds it. A query that does not fit waits for
// admission on its caller's context, then gathers in a fresh window;
// the charge is returned as the query's outcome is delivered, and every
// completed run records its observed peak (Catalog.ObservePeak).
//
// Each document gets its own batch window, so a burst against one
// document never delays queries against another. Scanners and engine
// shells are pooled (sync.Pool) underneath, so a resident Executor does
// not churn allocations per batch.
//
// Cancellation is per caller: when an ExecuteContext context ends — a
// dead client, an expired deadline — that caller unblocks immediately
// and its query is detached from the in-flight scan at the next event
// batch, while sibling queries keep streaming.
type Executor struct {
	cat *Catalog
	opt ExecutorOptions

	mu      sync.Mutex
	pending map[string]*docBatch // open batch per document name
	// held counts the requests the Executor holds, from enqueue until
	// each one's outcome is sent on its done channel (see finish).
	held atomic.Int64

	// autoCache memoizes merged path automata by their sorted group
	// keys (mux.GroupKey: schema and signature): a steady workload of
	// repeating query batches compiles its automaton once, whichever
	// document of the schema it scans and across swaps of its file.
	autoMu    sync.Mutex
	autoCache map[string]*autom.Machine

	stats sync.Map // doc name -> *docCounters
}

// ExecutorOptions configures batching and scheduling.
type ExecutorOptions struct {
	// Window is how long the first query of a batch waits for
	// companions while the Executor holds more queries than processors
	// (runtime.GOMAXPROCS); below that a query dispatches at once. 0
	// means DefaultWindow. Batching trades that latency for shared scans
	// under saturation.
	Window time.Duration
	// MaxBatch dispatches a batch immediately once this many queries
	// have joined; 0 means DefaultMaxBatch.
	MaxBatch int
	// AttrsToSubelements applies the XSAX attribute conversion to every
	// scan.
	AttrsToSubelements bool
}

// Defaults for ExecutorOptions zero values.
const (
	DefaultWindow   = 2 * time.Millisecond
	DefaultMaxBatch = 16
)

// NewExecutor returns an executor serving documents from cat.
func NewExecutor(cat *Catalog, opt ExecutorOptions) (*Executor, error) {
	if cat == nil {
		return nil, errors.New("flux: NewExecutor needs a catalog")
	}
	if opt.Window < 0 {
		return nil, fmt.Errorf("flux: negative batch window %s", opt.Window)
	}
	if opt.MaxBatch < 0 {
		return nil, fmt.Errorf("flux: negative max batch %d", opt.MaxBatch)
	}
	if opt.Window == 0 {
		opt.Window = DefaultWindow
	}
	if opt.MaxBatch == 0 {
		opt.MaxBatch = DefaultMaxBatch
	}
	return &Executor{
		cat:       cat,
		opt:       opt,
		pending:   make(map[string]*docBatch),
		autoCache: make(map[string]*autom.Machine),
	}, nil
}

// Catalog returns the catalog this executor serves from.
func (e *Executor) Catalog() *Catalog { return e.cat }

// ExecResult reports one completed execution.
type ExecResult struct {
	// Stats are the query's execution statistics.
	Stats Stats
	// BatchSize is how many queries shared the execution's scan.
	BatchSize int
}

// execRequest is one enqueued execution.
type execRequest struct {
	ctx     context.Context
	q       *Query
	w       *guardWriter
	done    chan execOutcome
	release func() // returns the request's admitted charge (see finish)
}

type execOutcome struct {
	res ExecResult
	err error
}

// docBatch is the open (not yet dispatched) batch for one document.
type docBatch struct {
	doc   string
	reqs  []*execRequest
	timer *time.Timer // window timer, stopped on early MaxBatch dispatch
}

// ExecuteContext compiles queryText against doc's schema (cache-backed
// via the catalog), waits for the catalog to admit the query's charge,
// joins doc's open batch, and blocks until the result has streamed to w
// or ctx is done. On cancellation it returns ctx.Err() as soon as no
// write to w is in progress: a write the scan has already begun on w
// runs to its end first (at the HTTP edge a write deadline bounds that
// wait), and after the return w is never written again. A query still
// waiting for admission leaves the queue; one in flight is detached
// from its scan at the next event batch while sibling queries keep
// streaming.
func (e *Executor) ExecuteContext(ctx context.Context, doc, queryText string, w io.Writer) (ExecResult, error) {
	q, err := e.cat.Prepare(doc, queryText)
	if err != nil {
		return ExecResult{}, err
	}
	return e.ExecuteQueryContext(ctx, doc, q, w)
}

// ExecuteQueryContext is ExecuteContext for an already compiled query.
func (e *Executor) ExecuteQueryContext(ctx context.Context, doc string, q *Query, w io.Writer) (ExecResult, error) {
	if _, err := e.cat.Info(doc); err != nil {
		return ExecResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return ExecResult{}, err
	}
	release, err := e.cat.Admit(ctx, e.cat.Charge(doc, q))
	if err != nil {
		// The caller left while its query queued for admission.
		c := e.counters(doc)
		c.queries.Add(1)
		c.canceled.Add(1)
		return ExecResult{}, err
	}
	req := &execRequest{
		ctx:     ctx,
		q:       q,
		w:       &guardWriter{w: w},
		done:    make(chan execOutcome, 1),
		release: release,
	}
	e.enqueue(doc, req)
	select {
	case out := <-req.done:
		return out.res, out.err
	case <-ctx.Done():
		// The context and the result can be ready simultaneously (a
		// deadline expiring as the batch finishes); prefer the completed
		// result — it has already streamed to w in full.
		select {
		case out := <-req.done:
			return out.res, out.err
		default:
		}
		// Unblock the caller; the batch runner detaches the plan at its
		// next event batch. Closing the guard waits out a write already
		// in progress and guarantees w is never touched after this
		// return.
		req.w.close()
		return ExecResult{}, ctx.Err()
	}
}

// enqueue counts req as held and dispatches it at once, as a batch of
// one, when doc has no open batch and the Executor holds no more
// requests than there are processors. Otherwise req joins doc's open
// batch: the first request of a batch arms the dispatch timer, and a
// full batch dispatches at once.
func (e *Executor) enqueue(doc string, req *execRequest) {
	e.mu.Lock()
	b := e.pending[doc]
	if e.held.Add(1) <= int64(runtime.GOMAXPROCS(0)) && b == nil {
		e.mu.Unlock()
		go e.runScan(doc, []*execRequest{req})
		return
	}
	if b == nil {
		b = &docBatch{doc: doc}
		e.pending[doc] = b
		b.timer = time.AfterFunc(e.opt.Window, func() { e.dispatch(b) })
	}
	b.reqs = append(b.reqs, req)
	if len(b.reqs) >= e.opt.MaxBatch {
		delete(e.pending, doc)
		e.mu.Unlock()
		// Stop the now-useless window timer so it does not pin the
		// dispatched batch (and its requests) until the window elapses.
		b.timer.Stop()
		// Dispatch on a fresh goroutine: the filling caller must fall
		// through to its ctx select like everyone else, or its own
		// cancellation could not unblock it mid-scan.
		go e.runScan(b.doc, b.reqs)
		return
	}
	e.mu.Unlock()
}

// dispatch runs a batch when its window closes. A batch that already
// dispatched on MaxBatch is no longer in pending, making the timer a
// no-op rather than a premature flush of the next batch's window.
func (e *Executor) dispatch(b *docBatch) {
	e.mu.Lock()
	if e.pending[b.doc] != b {
		e.mu.Unlock()
		return
	}
	delete(e.pending, b.doc)
	e.mu.Unlock()
	e.runScan(b.doc, b.reqs)
}

// runScan executes one shared scan over reqs and delivers each request
// its result. Requests whose caller left while the batch gathered are
// dropped up front, counted as canceled queries that never scanned; a
// batch with nobody left never touches the document.
func (e *Executor) runScan(doc string, reqs []*execRequest) {
	c := e.counters(doc)
	live := reqs[:0]
	for _, req := range reqs {
		if err := req.ctx.Err(); err != nil {
			c.queries.Add(1)
			c.canceled.Add(1)
			e.finish(req, execOutcome{err: err})
			continue
		}
		live = append(live, req)
	}
	if reqs = live; len(reqs) == 0 {
		return
	}

	n := len(reqs)
	c.scans.Add(1)
	c.queries.Add(int64(n))
	if n > 1 {
		c.shared.Add(int64(n))
	}
	for {
		peak := c.peakBatch.Load()
		if int64(n) <= peak || c.peakBatch.CompareAndSwap(peak, int64(n)) {
			break
		}
	}

	fail := func(err error) {
		for _, req := range reqs {
			e.finish(req, execOutcome{res: ExecResult{BatchSize: n}, err: err})
		}
	}
	// The version is read before the file is opened: a Swap in between
	// makes the observed peaks below stale, never misattributed.
	info, err := e.cat.Info(doc)
	if err != nil {
		fail(err)
		return
	}
	f, err := e.cat.Open(doc)
	if err != nil {
		fail(err)
		return
	}
	defer f.Close()

	m := mux.NewSelective()
	mach, hit := e.machineFor(reqs)
	m.SetMachine(mach)
	c.autoStates.Store(int64(mach.States()))
	if hit {
		c.autoHits.Add(1)
	}
	for _, req := range reqs {
		m.AddContext(req.ctx, req.q.plan, req.w)
	}
	results, err := m.Run(nil, f, sax.Options{
		SkipWhitespaceText: true,
		AttrsToSubelements: e.opt.AttrsToSubelements,
	})
	if results == nil {
		fail(err)
		return
	}
	// Account for the whole scan before handing any caller its outcome:
	// a caller that reads Stats after ExecuteContext returns must find
	// its batch's counters complete, siblings' included.
	for i, req := range reqs {
		r := results[i]
		// A failed slot whose caller context is done counts as canceled,
		// whatever surfaced first: the mux ctx poll (context.Canceled),
		// the closed guard (errWriterClosed), or a write error on the
		// caller's dying transport racing ahead of both.
		if r.Err != nil && (req.ctx.Err() != nil || errors.Is(r.Err, errWriterClosed)) {
			c.canceled.Add(1)
		}
		if r.Err == nil {
			// A completed run prices its signature's next admission (failed
			// or canceled runs observe a truncated peak).
			e.cat.ObservePeak(info, req.q.plan.SigKey(), r.Stats.PeakBufferBytes)
		}
		c.eventsSkipped.Add(r.SkippedEvents)
	}
	for i, req := range reqs {
		r := results[i]
		e.finish(req, execOutcome{
			res: ExecResult{
				Stats: Stats{
					PeakBufferBytes: r.Stats.PeakBufferBytes,
					OutputBytes:     r.Stats.OutputBytes,
					Tokens:          r.Stats.Tokens,
				},
				BatchSize: n,
			},
			err: r.Err,
		})
	}
}

// finish sends req its outcome; from then on the Executor no longer
// holds it. The request's admitted charge is returned and the count
// falls first, so a caller that submits again at once neither queues
// behind its own finished query nor is counted twice.
func (e *Executor) finish(req *execRequest, out execOutcome) {
	req.release()
	e.held.Add(-1)
	req.done <- out
}

// autoCacheCap bounds the automaton cache; at the cap the whole cache
// is dropped (distinct batch shapes per process are few — an eviction
// storm here would mean the workload has no repeating batches to serve
// from cache anyway).
const autoCacheCap = 256

// machineFor returns the merged path automaton for this batch's set of
// routing groups, building and caching it on first sight. The second
// result reports a cache hit.
func (e *Executor) machineFor(reqs []*execRequest) (*autom.Machine, bool) {
	sigs := make(map[string]*engine.SigNode, len(reqs))
	keys := make([]string, 0, len(reqs))
	for _, req := range reqs {
		key := mux.GroupKey(req.q.plan)
		if _, ok := sigs[key]; !ok {
			sigs[key] = req.q.plan.Signature()
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	cacheKey := strings.Join(keys, "\x1e")
	e.autoMu.Lock()
	mach, ok := e.autoCache[cacheKey]
	e.autoMu.Unlock()
	if ok {
		return mach, true
	}
	groups := make([]autom.Group, len(keys))
	for i, key := range keys {
		groups[i] = autom.Group{Key: key, Sig: sigs[key]}
	}
	mach = autom.Build(groups)
	e.autoMu.Lock()
	if len(e.autoCache) >= autoCacheCap {
		clear(e.autoCache)
	}
	e.autoCache[cacheKey] = mach
	e.autoMu.Unlock()
	return mach, false
}

// --- per-document counters ----------------------------------------------

// DocStats are one document's serving counters.
type DocStats struct {
	// Queries counts executions against the document.
	Queries int64 `json:"queries"`
	// Scans counts input passes; a Queries/Scans ratio above 1 is the
	// shared-scan amortization.
	Scans int64 `json:"scans"`
	// Shared counts queries that shared their pass with a sibling.
	Shared int64 `json:"queries_shared"`
	// PeakBatch is the largest batch dispatched so far.
	PeakBatch int64 `json:"peak_batch_size"`
	// Canceled counts queries whose caller left: detached mid-scan, or
	// gone before any scan while queued for admission or gathering.
	Canceled int64 `json:"canceled"`
	// EventsSkipped counts scan events selective fan-out withheld from
	// queries whose projection could not match them, summed over all
	// queries; a lower bound when scanner pruning collapsed skipped
	// subtrees into single tokens (see mux.Result.SkippedEvents).
	EventsSkipped int64 `json:"events_skipped"`
	// AutomatonStates is the state count of the most recent merged path
	// automaton a batch against this document compiled (or fetched from
	// cache) — a size gauge for the shared dispatch structure. 0 until
	// an automaton-routed scan runs.
	AutomatonStates int64 `json:"automaton_states"`
	// AutomatonHits counts scans that reused a cached merged automaton
	// instead of compiling one.
	AutomatonHits int64 `json:"automaton_hits"`
}

type docCounters struct {
	queries       atomic.Int64
	scans         atomic.Int64
	shared        atomic.Int64
	peakBatch     atomic.Int64
	canceled      atomic.Int64
	eventsSkipped atomic.Int64
	autoStates    atomic.Int64
	autoHits      atomic.Int64
}

func (e *Executor) counters(doc string) *docCounters {
	if c, ok := e.stats.Load(doc); ok {
		return c.(*docCounters)
	}
	c, _ := e.stats.LoadOrStore(doc, &docCounters{})
	return c.(*docCounters)
}

// Stats reports per-document serving counters for every document the
// executor has served.
func (e *Executor) Stats() map[string]DocStats {
	out := make(map[string]DocStats)
	e.stats.Range(func(k, v any) bool {
		c := v.(*docCounters)
		out[k.(string)] = DocStats{
			Queries:         c.queries.Load(),
			Scans:           c.scans.Load(),
			Shared:          c.shared.Load(),
			PeakBatch:       c.peakBatch.Load(),
			Canceled:        c.canceled.Load(),
			EventsSkipped:   c.eventsSkipped.Load(),
			AutomatonStates: c.autoStates.Load(),
			AutomatonHits:   c.autoHits.Load(),
		}
		return true
	})
	return out
}

// ServerStats is the complete serving snapshot one serving process — a
// standalone fluxd, or a shard worker behind fluxrouter — exports at
// /stats. It is the typed form of that JSON payload: per-document
// serving counters, the compiled-query cache counters, and the query
// admission counters.
// fluxrouter's stats merger (internal/shard) aggregates these per-shard
// snapshots into one cross-shard rollup.
type ServerStats struct {
	// Docs holds one entry per registered document, zero-valued for
	// documents that have not served a query yet, so a dashboard always
	// sees the whole catalog, plus one per document the executor has
	// ever served: a removed or migrated-away document keeps its entry
	// and cumulative counters, so a sum over workers never goes
	// backwards.
	Docs map[string]DocStats `json:"docs"`
	// Cache is the catalog's compiled-query cache counters.
	Cache CacheStats `json:"cache"`
	// Admission is the catalog's query-admission counters.
	Admission AdmissionStats `json:"admission"`
}

// ServerStats assembles the process-wide serving snapshot: the
// executor's per-document counters (every registered document included,
// zero-valued until it serves, and every document it ever served,
// registered or not) plus the catalog's cache and admission counters.
func (e *Executor) ServerStats() ServerStats {
	docs := e.Stats()
	for _, name := range e.cat.Docs() {
		if _, ok := docs[name]; !ok {
			docs[name] = DocStats{}
		}
	}
	return ServerStats{
		Docs:      docs,
		Cache:     e.cat.CacheStats(),
		Admission: e.cat.AdmissionStats(),
	}
}

// --- guarded writer ------------------------------------------------------

// errWriterClosed is the write error a detached (canceled) request's
// session observes; it fails the session, detaching the plan from the
// shared scan.
var errWriterClosed = errors.New("flux: output writer closed by cancellation")

// guardWriter serializes the batch runner's writes against the caller's
// cancellation: once close returns (just before ExecuteQueryContext
// returns on a done context), no later write reaches the underlying
// writer — essential when w is an http.ResponseWriter that dies with
// its handler. close takes the lock an in-flight Write holds, so it
// returns only after that write does.
type guardWriter struct {
	mu     sync.Mutex
	w      io.Writer
	closed bool
}

func (g *guardWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return 0, errWriterClosed
	}
	return g.w.Write(p)
}

func (g *guardWriter) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}
