package mux

// Parallel per-group evaluation: the multicore streaming scan.
//
// A sequential shared scan runs three stages on one goroutine: the
// scanner tokenizes, the merged automaton (internal/autom) decides
// per-group delivery, and every group's engine sessions consume their
// events. The first two stages are inherently serial — the matcher is a
// depth-tracking cursor over the token stream — but the third is not:
// event-routing groups share no sessions, no writers, and no routing
// state, so their engine work can proceed independently once the
// delivery decision for a token is known.
//
// Which scans split. The kind of scan decides, not a setting: a
// streaming mux (NewStreaming) runs the pipeline whenever GOMAXPROCS is
// at least 2 — a lone ingest gains by overlapping its scan with its
// subscribers' evaluation — while the batch muxes (New, NewSelective)
// always route inline, because their callers (the Executor) already run
// concurrent scans that fill the cores. At GOMAXPROCS=1 a streaming
// mux routes inline too.
//
// The split. The scan goroutine (the producer) keeps tokenizing and
// stepping the Matcher, but instead of calling into sessions it copies
// each token's delivery masks into a per-batch item and hands the item
// to a small pool of workers, each owning a disjoint set of routing
// groups (an ownership bitset). A worker is the sequential router
// restricted to its groups: it walks the item's token range in order —
// token-major, like routeBatch — and calls the same deliver with the
// copied masks and its ownership bitset, so every session receives the
// same calls in the same order as on the sequential path, and outputs,
// per-query stats, and error isolation are byte-identical.
//
// Lifetime and backpressure. Tokens reference the sax.Batch's arena, so
// every item retains its batch (sax.Batch.Retain) once per worker
// message and each worker releases after processing. The scanner's
// batch ring will not reuse a retained batch's storage: when workers
// fall behind, the producer blocks inside sax's flushBatch — that is
// the backpressure edge, and it propagates all the way to the ingest's
// Write. Worker queues are additionally bounded at parQueueDepth,
// though the batch ring's window is the binding limit in practice.
//
// Error isolation. A worker records a member failure with fail:
// per-slot Result fields are owner-exclusive (each slot belongs to
// exactly one group, each group to exactly one worker), only the live
// count is shared and atomic. Siblings in other groups stream on
// undisturbed; a stream outlives its last live slot, so there is no
// all-failed abort to race.
//
// Joins. Mid-stream joins need the scan quiescent: at a sync point with
// pending subscriptions the producer flushes the partial item, sends a
// quiesce barrier through every worker queue, and only then runs
// activatePending — machine rebuild, Matcher.Extend, session replay all
// happen while no worker holds an item. Fresh groups are assigned to
// workers round-robin (parAddGroup sets the owner's bit); subsequent
// items carry the widened masks (items record their own mask width).
// Per-batch cancellation polling and output flushing (pollCtxs,
// flushLive) move onto the workers, each given its ownership bitset.
// Tiny token batches with no items in flight are routed inline on the
// producer (HandleBatch), skipping the dispatch overhead the sequential
// path never paid.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"flux/internal/autom"
	"flux/internal/sax"
)

const (
	// parInlineTokens is the inline fast path's threshold: a batch this
	// small is routed sequentially on the producer when no item is in
	// flight, instead of paying per-worker dispatch for a handful of
	// tokens.
	parInlineTokens = 64
	// parQueueDepth bounds each worker's item queue. The scanner's batch
	// ring already limits distinct batches in flight; the headroom above
	// that covers items split at streaming sync points.
	parQueueDepth = 8
	// maxParWorkers caps the worker pool; beyond this, per-batch dispatch
	// overhead outweighs added parallelism for realistic group counts.
	maxParWorkers = 16
)

// parState is the Mux's parallel-pipeline state, non-nil only while a
// streaming scan runs its worker pool.
type parState struct {
	workers []*parWorker
	// outstanding counts worker messages not yet fully processed; zero
	// means every worker is idle and the producer may touch sessions
	// inline (the atomic ordering makes the workers' writes visible).
	outstanding atomic.Int64
	// stopped makes stopParallel idempotent.
	stopped bool
}

// parWorker owns a disjoint set of routing groups and evaluates their
// members' sessions on its own goroutine.
type parWorker struct {
	// own has a bit set per routing group the worker owns. Never nil:
	// deliver reads a nil mask as every group, and a worker with no
	// groups owns none.
	own  autom.Mask
	ch   chan parMsg
	done chan struct{}
}

// parMsg is one unit of worker input: a token range of an item, or a
// quiesce barrier.
type parMsg struct {
	it      *parItem
	lo, hi  int // token range [lo, hi) in batch coordinates
	quiesce *sync.WaitGroup
}

// parItem carries one batch's routing decisions: for every token from
// firstTok on, the deliver mask and (for start tags) the skip-start
// mask the matcher produced, copied out because matcher masks are only
// valid until its next call.
type parItem struct {
	batch *sax.Batch
	// masks holds 2*words words per covered token: deliver first, then
	// skip-start (meaningful for StartElement tokens only). Indexed by
	// (tok - firstTok).
	masks    []uint64
	words    int // mask width when the item was created
	firstTok int // first batch token this item covers
	// refs counts unprocessed worker messages referencing the item; the
	// last release recycles it.
	refs atomic.Int32
}

// parItemPool recycles item shells (mask buffers) across batches and
// scans.
var parItemPool = sync.Pool{New: func() any { return &parItem{} }}

// ParallelActive reports whether the scan is (or, after EndStream, was)
// evaluating on the worker pool: true for a streaming mux begun at
// GOMAXPROCS ≥ 2, false for every other mux.
func (m *Mux) ParallelActive() bool { return m.par != nil }

// startParallel spins up the worker pool on a multicore host; called
// only by BeginStream, after the sessions' Begin and before the first
// batch. A stream starts the pool even with one group
// or none — pipelining scan against evaluation pays on its own, and
// groups may join later.
func (m *Mux) startParallel() {
	nw := runtime.GOMAXPROCS(0)
	if nw < 2 {
		return
	}
	if nw > maxParWorkers {
		nw = maxParWorkers
	}
	p := &parState{workers: make([]*parWorker, nw)}
	for wi := range p.workers {
		p.workers[wi] = &parWorker{
			own:  autom.Mask{},
			ch:   make(chan parMsg, parQueueDepth),
			done: make(chan struct{}),
		}
	}
	m.par = p
	for gi := range m.groups {
		m.parAddGroup(gi)
	}
	for _, w := range p.workers {
		go w.run(m)
	}
}

// parAddGroup assigns routing group gi to a worker (round-robin).
// Called at startParallel, and from activatePending for groups created
// mid-stream — always while the workers are quiescent, so the owning
// worker observes the assignment through its next message receive.
func (m *Mux) parAddGroup(gi int) {
	if m.par == nil {
		return
	}
	w := m.par.workers[gi%len(m.par.workers)]
	for len(w.own) <= gi>>6 {
		w.own = append(w.own, 0)
	}
	w.own[gi>>6] |= 1 << (gi & 63)
}

// stopParallel closes the worker queues and waits for every worker to
// drain — the completion barrier before EndStream finishes or fails
// the sessions on this goroutine. Idempotent; no-op when the scan never
// went parallel.
func (m *Mux) stopParallel() {
	p := m.par
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	for _, w := range p.workers {
		close(w.ch)
	}
	for _, w := range p.workers {
		<-w.done
	}
}

// parQuiesce drains the pipeline without stopping it: a barrier message
// flows through every worker queue, and the producer waits until all
// workers have reached it. On return every previously issued item is
// fully processed and the producer may mutate shared routing state.
func (m *Mux) parQuiesce() {
	var wg sync.WaitGroup
	wg.Add(len(m.par.workers))
	for _, w := range m.par.workers {
		w.ch <- parMsg{quiesce: &wg}
	}
	wg.Wait()
}

// parHandleBatch is HandleBatch under the parallel pipeline: the
// producer half of the scan. It steps the matcher over the batch,
// copies each token's delivery masks into an item, and feeds the
// workers — splitting the item at sync points, where activation needs
// a quiescent pipeline.
func (m *Mux) parHandleBatch(b *sax.Batch) error {
	it := m.parNewItem(b, 0)
	lo := 0
	for i := range b.Tokens {
		if m.syncPoint() {
			// Ship what this item has, drain the pipeline, and admit the
			// joiners; the rest of the batch goes into a fresh item sized
			// for the (possibly wider) extended automaton.
			m.parFlushRange(it, lo, i)
			m.parQuiesce()
			m.activatePending()
			it = m.parNewItem(b, i)
			lo = i
		}
		base := (i - it.firstTok) * 2 * it.words
		deliver, skip := m.step(&b.Tokens[i])
		copy(it.masks[base:], deliver)
		copy(it.masks[base+it.words:], skip)
	}
	m.parFlushRange(it, lo, len(b.Tokens))
	return nil
}

// parNewItem takes an item shell from the pool and sizes it for the
// batch tokens from firstTok on, at the automaton's current mask width.
func (m *Mux) parNewItem(b *sax.Batch, firstTok int) *parItem {
	it := parItemPool.Get().(*parItem)
	words := (m.machine.NumGroups() + 63) / 64
	need := (len(b.Tokens) - firstTok) * 2 * words
	if cap(it.masks) < need {
		it.masks = make([]uint64, need)
	} else {
		it.masks = it.masks[:need]
	}
	it.batch = b
	it.words = words
	it.firstTok = firstTok
	it.refs.Store(0)
	return it
}

// parFlushRange sends the item's [lo, hi) token range to every worker,
// retaining the underlying batch once per message so the scanner cannot
// recycle it while any worker still reads it.
func (m *Mux) parFlushRange(it *parItem, lo, hi int) {
	if lo >= hi {
		return
	}
	p := m.par
	it.refs.Add(int32(len(p.workers)))
	p.outstanding.Add(int64(len(p.workers)))
	for _, w := range p.workers {
		it.batch.Retain()
		w.ch <- parMsg{it: it, lo: lo, hi: hi}
	}
}

// run is the worker loop: the sequential router restricted to the
// worker's groups. Per message it polls its members' contexts once (the
// batch granularity of the sequential scan), delivers the token range
// with the item's copied masks, and flushes its members' buffered
// output — the per-batch visibility point flushLive provides
// sequentially. Quiesce barriers are acknowledged; the loop exits when
// the producer closes the queue.
func (w *parWorker) run(m *Mux) {
	defer close(w.done)
	for msg := range w.ch {
		if msg.quiesce != nil {
			msg.quiesce.Done()
			continue
		}
		it := msg.it
		if m.nctx > 0 {
			m.pollCtxs(w.own)
		}
		for ti := msg.lo; ti < msg.hi; ti++ {
			base := (ti - it.firstTok) * 2 * it.words
			mid := base + it.words
			m.deliver(&it.batch.Tokens[ti], it.masks[base:mid], it.masks[mid:mid+it.words], w.own)
		}
		m.flushLive(w.own)
		m.parRelease(it)
	}
}

// parRelease undoes one message's retention of its item and batch; the
// last release of an item returns its shell to the pool.
func (m *Mux) parRelease(it *parItem) {
	b := it.batch
	if it.refs.Add(-1) == 0 {
		it.batch = nil
		parItemPool.Put(it)
	}
	b.Release()
	m.par.outstanding.Add(-1)
}
