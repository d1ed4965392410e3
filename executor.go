package flux

import (
	"context"
	"errors"
	"fmt"
	"io"
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
// Fan-out is selective by default: plans are partitioned by their
// projected-path signature into event-routing groups, and a subtree no
// path of a group's signature can match is skipped for that group in a
// single step, so each query of a wide batch is delivered only the
// events its projection can reach (DocStats.EventsSkipped counts the
// rest). Routing decisions are made by one merged path automaton per
// batch (internal/autom), compiled once per distinct (document,
// signature-set) pair and cached until the document is swapped —
// DocStats.AutomatonHits counts cache reuse. The interior of a subtree
// a query ignores is not validated against its DTD; RunAll keeps
// all-fanout delivery and with it full per-query validation.
//
// Dispatch is cost-based: each compiled plan carries a static predicted
// peak buffer size (BufferReport.PredictedPeakBytes); when a batch's
// sum exceeds ExecutorOptions.BatchBufferBudget the batch is split —
// plans are grouped by buffer profile and the overflow runs as deferred
// sub-batches after the first scan completes, bounding the resident
// footprint of any single scan. Every scan is additionally admitted
// through the catalog's admission control (Catalog.AdmitScan), which
// bounds concurrent scans per document and total resident predicted
// bytes across the process.
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

	// autoCache memoizes merged path automata by (document, swap count,
	// sorted signature-key set): a steady workload of repeating query
	// batches compiles its automaton once. Swapping a document changes
	// the key, so stale machines age out naturally.
	autoMu    sync.Mutex
	autoCache map[string]*autom.Machine

	stats sync.Map // doc name -> *docCounters
}

// ExecutorOptions configures batching and scheduling.
type ExecutorOptions struct {
	// Window is how long the first query of a batch waits for
	// companions; 0 means DefaultWindow. Batching trades that latency
	// for shared scans under concurrency.
	Window time.Duration
	// MaxBatch dispatches a batch immediately once this many queries
	// have joined; 0 means DefaultMaxBatch.
	MaxBatch int
	// AttrsToSubelements applies the XSAX attribute conversion to every
	// scan.
	AttrsToSubelements bool
	// BatchBufferBudget caps the summed predicted peak buffer bytes
	// (BufferReport.PredictedPeakBytes) of the queries sharing one scan.
	// A batch over budget is split deterministically: queries are
	// grouped by buffer profile and packed in order, and overflow
	// sub-batches run one after another (deferred), each its own scan.
	// A single query predicting more than the whole budget still runs,
	// alone. 0 means unlimited.
	BatchBufferBudget int64
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
	if opt.BatchBufferBudget < 0 {
		return nil, fmt.Errorf("flux: negative batch buffer budget %d", opt.BatchBufferBudget)
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
	ctx  context.Context
	q    *Query
	w    *guardWriter
	done chan execOutcome
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
// via the catalog), joins doc's open batch, and blocks until the
// result has streamed to w or ctx is done. On cancellation it returns
// ctx.Err() immediately; the in-flight scan detaches the query at the
// next event batch (after which w is never written again) and sibling
// queries keep streaming.
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
	req := &execRequest{
		ctx:  ctx,
		q:    q,
		w:    &guardWriter{w: w},
		done: make(chan execOutcome, 1),
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
		// Unblock the caller now; the batch runner detaches the plan at
		// its next event batch. Closing the guard first guarantees w is
		// never touched after this return.
		req.w.close()
		return ExecResult{}, ctx.Err()
	}
}

// enqueue adds req to doc's open batch. The first request of a batch
// arms the dispatch timer; a full batch dispatches at once.
func (e *Executor) enqueue(doc string, req *execRequest) {
	e.mu.Lock()
	b := e.pending[doc]
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
		go e.runBatch(b)
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
	e.runBatch(b)
}

// runBatch schedules one collected batch: it splits the requests into
// budget-respecting sub-batches by buffer profile and runs each as its
// own admitted shared scan, in order — overflow work is deferred behind
// the first scan rather than inflating its resident footprint.
func (e *Executor) runBatch(b *docBatch) {
	subs := splitByBudget(b.reqs, e.opt.BatchBufferBudget)
	if len(subs) > 1 {
		c := e.counters(b.doc)
		c.splits.Add(int64(len(subs) - 1))
		deferred := 0
		for _, sub := range subs[1:] {
			deferred += len(sub)
		}
		c.deferred.Add(int64(deferred))
	}
	for _, sub := range subs {
		e.runScan(b.doc, sub)
	}
}

// splitByBudget partitions a batch into sub-batches whose summed
// predicted peak buffer bytes stay within budget (0 = no limit). The
// split is deterministic for a given arrival order: requests are
// stable-sorted by buffer profile (signature key), so plans with equal
// routing behavior share a scan, then packed greedily in order. A
// single request over the whole budget gets a sub-batch of its own,
// and zero-predicted (fully streaming) queries never trigger a split —
// they add nothing to a scan's resident footprint, so deferring them
// would cost a document pass for free (the admission layer exempts
// them from the byte budget for the same reason).
func splitByBudget(reqs []*execRequest, budget int64) [][]*execRequest {
	if budget <= 0 || len(reqs) <= 1 {
		return [][]*execRequest{reqs}
	}
	sorted := make([]*execRequest, len(reqs))
	copy(sorted, reqs)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].q.plan.SigKey() < sorted[j].q.plan.SigKey()
	})
	// Zero-predicted queries ride the first scan unconditionally — they
	// add nothing to any scan's resident footprint, so deferring one
	// behind a split would cost its caller a document pass for free.
	var subs [][]*execRequest
	var cur, riders []*execRequest
	var sum int64
	for _, req := range sorted {
		p := req.q.plan.PredictedPeakBytes()
		if p == 0 {
			riders = append(riders, req)
			continue
		}
		if len(cur) > 0 && sum+p > budget {
			subs = append(subs, cur)
			cur, sum = nil, 0
		}
		cur = append(cur, req)
		sum += p
	}
	if len(cur) > 0 {
		subs = append(subs, cur)
	}
	if len(subs) == 0 {
		return [][]*execRequest{riders}
	}
	subs[0] = append(subs[0], riders...)
	return subs
}

// runScan executes one shared scan over sub and delivers each request
// its result. The scan is admitted through the catalog's admission
// control before the document is opened. Requests whose context is
// already done — common for deferred sub-batches whose callers timed
// out behind an earlier scan — are dropped up front, and a fully dead
// sub-batch never takes an admission slot or touches the document.
func (e *Executor) runScan(doc string, reqs []*execRequest) {
	c := e.counters(doc)
	// dropDead removes requests whose caller is already gone, counting
	// them as canceled queries that never scanned.
	dropDead := func(rs []*execRequest) []*execRequest {
		live := rs[:0]
		for _, req := range rs {
			if err := req.ctx.Err(); err != nil {
				c.queries.Add(1)
				c.canceled.Add(1)
				req.done <- execOutcome{err: err}
				continue
			}
			live = append(live, req)
		}
		return live
	}
	if reqs = dropDead(reqs); len(reqs) == 0 {
		return
	}
	charges := make([]ScanCharge, len(reqs))
	for i, req := range reqs {
		charges[i] = ScanCharge{Sig: req.q.plan.SigKey(), PredictedBytes: req.q.plan.PredictedPeakBytes()}
	}
	release := e.cat.AdmitScanCharges(doc, charges)
	defer release()
	// Admission may have queued for a while; callers that died waiting
	// must not cost a scan.
	if reqs = dropDead(reqs); len(reqs) == 0 {
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
			req.done <- execOutcome{res: ExecResult{BatchSize: n}, err: err}
		}
	}
	f, err := e.cat.Open(doc)
	if err != nil {
		fail(err)
		return
	}
	defer f.Close()

	m := mux.NewSelective()
	if mach, hit := e.machineFor(doc, reqs); mach != nil {
		m.SetMachine(mach)
		c.autoStates.Store(int64(mach.States()))
		if hit {
			c.autoHits.Add(1)
		}
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
			// A completed execution calibrates the cost model: the observed
			// peak against the static prediction (failed or canceled runs
			// observe a truncated peak and would bias the average low).
			e.cat.ObservePeak(req.q.plan.SigKey(), req.q.plan.PredictedPeakBytes(), r.Stats.PeakBufferBytes)
		}
		c.eventsSkipped.Add(r.SkippedEvents)
	}
	// The scan is over: return its admission before any caller sees its
	// outcome, for the same reason, and so that a caller that queries
	// again at once does not queue behind its own finished scan.
	release()
	for i, req := range reqs {
		r := results[i]
		req.done <- execOutcome{
			res: ExecResult{
				Stats: Stats{
					PeakBufferBytes: r.Stats.PeakBufferBytes,
					OutputBytes:     r.Stats.OutputBytes,
					Tokens:          r.Stats.Tokens,
				},
				BatchSize: n,
			},
			err: r.Err,
		}
	}
}

// autoCacheCap bounds the automaton cache; at the cap the whole cache
// is dropped (distinct batch shapes per process are few — an eviction
// storm here would mean the workload has no repeating batches to serve
// from cache anyway).
const autoCacheCap = 256

// machineFor returns the merged path automaton for this batch's
// signature-key set against doc's current version, building and caching
// it on first sight. The second result reports a cache hit. Returns nil
// when the document is unknown (the scan will fail on Open anyway; the
// Mux then builds its own machine).
func (e *Executor) machineFor(doc string, reqs []*execRequest) (*autom.Machine, bool) {
	info, err := e.cat.Info(doc)
	if err != nil {
		return nil, false
	}
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
	cacheKey := fmt.Sprintf("%s\x00%d\x00%s", doc, info.Swaps, strings.Join(keys, "\x1e"))
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
	// Canceled counts queries detached mid-scan by cancellation.
	Canceled int64 `json:"canceled"`
	// EventsSkipped counts scan events selective fan-out withheld from
	// queries whose projection could not match them, summed over all
	// queries; a lower bound when scanner pruning collapsed skipped
	// subtrees into single tokens (see mux.Result.SkippedEvents).
	EventsSkipped int64 `json:"events_skipped"`
	// BatchSplits counts the extra scans forced by BatchBufferBudget
	// (each split batch contributes its sub-batch count minus one).
	BatchSplits int64 `json:"batch_splits"`
	// Deferred counts queries moved behind another scan by a budget
	// split instead of running in their batch's first scan.
	Deferred int64 `json:"queries_deferred"`
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
	splits        atomic.Int64
	deferred      atomic.Int64
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
			BatchSplits:     c.splits.Load(),
			Deferred:        c.deferred.Load(),
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
// serving counters, the compiled-query cache counters, the scan
// admission counters, and the predicted-peak calibration state.
// fluxrouter's stats merger (internal/shard) aggregates these per-shard
// snapshots into one cross-shard rollup.
type ServerStats struct {
	// Docs holds one entry per registered document, zero-valued for
	// documents that have not served a query yet, so a dashboard always
	// sees the whole catalog.
	Docs map[string]DocStats `json:"docs"`
	// Cache is the catalog's compiled-query cache counters.
	Cache CacheStats `json:"cache"`
	// Admission is the catalog's scan-admission counters.
	Admission AdmissionStats `json:"admission"`
	// Calibration is the catalog's predicted-peak correction state.
	Calibration CalibrationStats `json:"calibration"`
}

// ServerStats assembles the process-wide serving snapshot: the
// executor's per-document counters (every registered document included,
// zero-valued until it serves) plus the catalog's cache, admission and
// calibration counters.
func (e *Executor) ServerStats() ServerStats {
	docs := e.Stats()
	for _, name := range e.cat.Docs() {
		if _, ok := docs[name]; !ok {
			docs[name] = DocStats{}
		}
	}
	return ServerStats{
		Docs:        docs,
		Cache:       e.cat.CacheStats(),
		Admission:   e.cat.AdmissionStats(),
		Calibration: e.cat.CalibrationStats(),
	}
}

// --- guarded writer ------------------------------------------------------

// errWriterClosed is the write error a detached (canceled) request's
// session observes; it fails the session, detaching the plan from the
// shared scan.
var errWriterClosed = errors.New("flux: output writer closed by cancellation")

// guardWriter serializes the batch runner's writes against the caller's
// cancellation: once close is called (just before ExecuteQueryContext
// returns on a done context), no later write reaches the underlying
// writer — essential when w is an http.ResponseWriter that dies with
// its handler.
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
