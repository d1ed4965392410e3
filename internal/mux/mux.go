// Package mux executes many compiled query plans over a single SAX pass
// of one input stream — a shared scan.
//
// The FluX engine already keeps per-query memory independent of input
// size; the multiplexer extends that discipline to concurrent workloads
// by amortizing the scan itself: N queries against the same document cost
// one tokenization and one read of the input, not N. Each registered plan
// runs in its own engine.Session, so per-query state, output, statistics,
// and failures stay fully isolated — a plan that errors mid-stream is
// detached from the event flow without disturbing its siblings.
//
// A multiplexer created with NewSelective additionally routes events by
// each plan's projected-path signature (engine.SigNode): plans with equal
// signatures form one event-routing group, and a subtree no path of a
// group's signature can match is delivered to that group as a single
// Session.SkipSubtree step instead of event by event. A wide batch of
// narrow queries then costs each query only the events its projection can
// match, not the whole document.
//
// Selective routing is evaluated by one merged path automaton per batch
// (internal/autom): the groups' signature tries are merged into a
// single trie with per-group accept bitsets, so each token updates one
// cursor and yields the whole batch's delivery decision as a mask —
// shared path prefixes cost one traversal no matter how many groups
// share them.
//
// The trade of selective routing: a plan no longer validates
// the interior of subtrees its query provably ignores (the parent content
// model still validates every skipped element's tag; element events at
// observed positions are always delivered, so validation there is
// unchanged). Character data at an observed tags-only position is
// delivered unless the DTD proves it irrelevant: at a mixed-content
// spine position text is always legal and never consumed, so it is
// withheld (engine.SigNode.DropText); at a non-mixed position stray
// text must still fail validation, so it flows. New preserves the
// deliver-everything behavior, including full per-plan DTD validation;
// it backs flux.RunAll's full-validation contract and serves the
// differential tests as the output oracle.
//
// A Mux consumes the scan as a sax.BatchHandler only: Run and the
// streaming lifecycle both drive the batched scanner. Selective routing
// is one delivery loop, token by token: step advances the matcher and
// yields the token's deliver and skip masks, deliver hands the token to
// the live members of those groups. A Mux starts no goroutine: a
// streaming scan that uses more than one core runs several muxes, one
// per goroutine, over the same batches (see internal/stream).
package mux

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"flux/internal/autom"
	"flux/internal/engine"
	"flux/internal/sax"
)

// Result is the outcome of one plan in a shared scan.
type Result struct {
	// Stats are the per-query execution statistics; for a failed query
	// they cover the prefix of the stream processed before the failure.
	Stats engine.Stats
	// Err is the query's own failure, nil on success. An input-level
	// failure (malformed XML, read error) is recorded on every query that
	// was still live when it happened and also returned from Run.
	Err error
	// SkippedEvents counts the scan events selective fan-out withheld
	// from this plan (the interior of subtrees its signature cannot
	// match). Under scanner-level pruning (the batched Run), a subtree
	// every group skips is consumed raw and arrives as one SkipElement
	// token, advancing this counter by one instead of by the subtree's
	// true event count — the value is a lower bound on the events an
	// all-fanout scan would have delivered, not an exact count. Always 0
	// for a Mux created with New.
	SkippedEvents int64
}

// Mux fans one stream's SAX events to any number of engine sessions.
// Zero value is not ready; use New or NewSelective. A Mux is single-use:
// register plans with Add or AddContext, then call Run once.
type Mux struct {
	sessions []*engine.Session
	plans    []*engine.Plan
	ctxs     []context.Context // per-slot cancellation, nil = never canceled
	results  []Result
	live     []bool
	nctx     int // slots with a non-nil context
	nlive    int // slots still live
	events   int64
	ran      bool

	// Selective fan-out state (selective Muxes only).
	selective bool
	groups    []*fanGroup
	slotGroup []int // slot index -> group index
	depth     int   // open elements in the scan

	// Automaton routing state (selective muxes): the merged
	// machine (built by buildGroups, or installed by SetMachine from the
	// executor's cache) and its per-scan matcher.
	machine *autom.Machine
	matcher *autom.Matcher

	// stream is non-nil in streaming mode (NewStreaming): explicit
	// BeginStream/EndStream lifecycle, mid-stream subscriptions, and a
	// scan that survives having no live sessions. See stream.go.
	stream *streamState
}

// fanGroup is one event-routing group: the plans sharing a signature
// and its identity. The trie cursor and skip bookkeeping live in the
// automaton's Matcher.
type fanGroup struct {
	members []int
	key     string
	sig     *engine.SigNode
}

// New returns an empty multiplexer that delivers every event to every
// registered plan (all-fanout).
func New() *Mux { return &Mux{} }

// NewSelective returns an empty multiplexer with selective fan-out:
// events are routed by each plan's projected-path signature, and
// subtrees a plan provably cannot match are skipped for it (see the
// package comment for the validation trade-off). Routing is evaluated
// by the batch's merged path automaton.
func NewSelective() *Mux { return &Mux{selective: true} }

// SetMachine installs a prebuilt merged automaton (the executor caches
// one per batch signature set). The machine must have been built from
// exactly the group keys of the plans registered by Run time — one
// Machine group per distinct GroupKey, no extras — otherwise it is
// ignored and a fresh automaton is built. Call before Run; no-op on
// all-fanout and streaming muxes.
func (m *Mux) SetMachine(mach *autom.Machine) {
	if m.selective && m.stream == nil {
		m.machine = mach
	}
}

// Selective reports whether this multiplexer routes events by plan
// signature rather than delivering everything to everyone.
func (m *Mux) Selective() bool { return m.selective }

// Add registers a compiled plan whose output is written to w, returning
// the slot index of its Result in the slice Run returns.
func (m *Mux) Add(plan *engine.Plan, w io.Writer) int {
	return m.AddContext(nil, plan, w)
}

// AddContext registers a plan with its own cancellation context. When
// ctx is done the plan is detached from the event flow mid-stream — its
// Result records ctx.Err() and the stats accumulated so far — while its
// siblings keep streaming. A nil ctx means the slot is never canceled
// individually. Cancellation is observed at event-batch granularity.
func (m *Mux) AddContext(ctx context.Context, plan *engine.Plan, w io.Writer) int {
	m.sessions = append(m.sessions, engine.NewSession(plan, w))
	m.plans = append(m.plans, plan)
	m.ctxs = append(m.ctxs, ctx)
	if ctx != nil {
		m.nctx++
	}
	m.results = append(m.results, Result{})
	m.live = append(m.live, true)
	m.nlive++
	return len(m.sessions) - 1
}

// Len reports the number of registered plans.
func (m *Mux) Len() int { return len(m.sessions) }

// Events reports the number of SAX events the shared scan tokenized —
// the per-pass cost that N independent runs would each pay again. Under
// selective fan-out individual plans may have been delivered fewer.
func (m *Mux) Events() int64 { return m.events }

// GroupStats describes one event-routing group of a selective scan.
type GroupStats struct {
	// Queries is the number of plans routed as this group.
	Queries int
	// SkippedEvents counts the scan events withheld from the group — a
	// lower bound under scanner pruning (see Result.SkippedEvents).
	SkippedEvents int64
}

// Groups reports the event-routing groups of a selective Mux in
// formation order, nil for an all-fanout Mux. Call it after Run.
func (m *Mux) Groups() []GroupStats {
	if !m.selective {
		return nil
	}
	out := make([]GroupStats, len(m.groups))
	for i, g := range m.groups {
		out[i] = GroupStats{Queries: len(g.members), SkippedEvents: m.matcher.Skipped(i)}
	}
	return out
}

// buildGroups partitions the registered plans into event-routing groups
// by (schema, signature key): plans in one group make identical skip
// decisions at every stream position, so routing is evaluated once per
// group, not once per plan. The groups are then compiled into one
// merged path automaton — reusing an installed SetMachine machine when
// its group-key set matches the batch exactly — and a per-scan matcher
// is created.
func (m *Mux) buildGroups() {
	if m.machine != nil && m.buildGroupsFromMachine() {
		m.matcher = m.machine.NewMatcher()
		return
	}
	m.machine = nil
	byKey := make(map[string]int)
	m.slotGroup = make([]int, len(m.plans))
	for i, p := range m.plans {
		key := GroupKey(p)
		gi, ok := byKey[key]
		if !ok {
			gi = len(m.groups)
			byKey[key] = gi
			m.groups = append(m.groups, &fanGroup{key: key, sig: p.Signature()})
		}
		m.groups[gi].members = append(m.groups[gi].members, i)
		m.slotGroup[i] = gi
	}
	m.machine = autom.Build(m.machineGroups())
	m.matcher = m.machine.NewMatcher()
	if m.stream != nil {
		m.stream.groupKeys = byKey // kept for mid-stream joins
	}
}

// buildGroupsFromMachine maps the registered plans onto an installed
// machine's group indices. It reports false — leaving the Mux to build
// a fresh automaton — when any plan's group key is unknown to the
// machine or the machine has groups no plan belongs to (either would
// change routing or pruning relative to a fresh build).
func (m *Mux) buildGroupsFromMachine() bool {
	mach := m.machine
	seen := make(map[string]bool, mach.NumGroups())
	slotGroup := make([]int, len(m.plans))
	groups := make([]*fanGroup, mach.NumGroups())
	for i, p := range m.plans {
		key := GroupKey(p)
		gi, ok := mach.GroupIndex(key)
		if !ok {
			return false
		}
		if groups[gi] == nil {
			groups[gi] = &fanGroup{key: key, sig: p.Signature()}
			seen[key] = true
		}
		groups[gi].members = append(groups[gi].members, i)
		slotGroup[i] = gi
	}
	if len(seen) != mach.NumGroups() {
		return false
	}
	m.groups = groups
	m.slotGroup = slotGroup
	return true
}

// machineGroups renders the Mux's routing groups, in index order, as
// the merged automaton's Build input.
func (m *Mux) machineGroups() []autom.Group {
	gs := make([]autom.Group, len(m.groups))
	for i, g := range m.groups {
		gs[i] = autom.Group{Key: g.key, Sig: g.sig}
	}
	return gs
}

// GroupKey identifies a plan's event-routing group: plans compiled
// against the same schema with equal signature keys route identically.
// The executor uses it to key its merged-automaton cache with the same
// identity the Mux groups by.
func GroupKey(p *engine.Plan) string {
	return fmt.Sprintf("%p|%s", p.Schema(), p.SigKey())
}

// errAllFailed aborts the scan early once no session is listening.
var errAllFailed = errors.New("mux: all queries failed")

// fail detaches slot i from the event flow, recording err and the stats
// accumulated up to the failure.
func (m *Mux) fail(i int, err error) {
	m.results[i].Err = err
	m.results[i].Stats = m.sessions[i].Abort()
	m.live[i] = false
	m.nlive--
	if m.stream != nil && m.stream.onDetach != nil {
		m.stream.onDetach(i, err)
	}
}

// pollCtxs detaches every live slot whose context is done. The batched
// delivery path calls it once per batch, bounding a canceled query's
// extra work to one event batch without a per-event ctx.Err() in the
// hot loop.
func (m *Mux) pollCtxs() {
	for i, ctx := range m.ctxs {
		if ctx == nil || !m.live[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			m.fail(i, err)
		}
	}
}

// HandleBatch implements sax.BatchHandler — the batched shared scan.
// All-fanout delivery hands the whole batch to each live session in one
// call, one dynamic dispatch per session per batch instead of one per
// session per event; selective fan-out routes token by token through
// routeBatch, since skip decisions are made per element. Per-slot
// cancellation is polled once per batch.
func (m *Mux) HandleBatch(b *sax.Batch) error {
	m.events += int64(len(b.Tokens))
	if m.nctx > 0 {
		m.pollCtxs()
	}
	switch {
	case m.stream != nil:
		// Route, then push every live session's buffered output to its
		// subscriber — results become visible at batch granularity, not
		// end of document. A stream outlives its last live slot.
		m.routeBatch(b)
		m.flushLive()
		return nil
	case m.selective:
		m.routeBatch(b)
	default:
		for i, s := range m.sessions {
			if !m.live[i] {
				continue
			}
			if err := s.HandleBatch(b); err != nil {
				m.fail(i, err)
			}
		}
	}
	if m.nlive == 0 {
		return errAllFailed
	}
	return nil
}

// routeBatch is the selective router: for each token a sync-point check
// (streaming joins), one matcher step, and one delivery to every group.
// Text tokens keep their arena-backed payloads all the way into the
// sessions (Session.TextBytes), so the batched selective scan allocates
// no text strings either.
func (m *Mux) routeBatch(b *sax.Batch) {
	for i := range b.Tokens {
		if m.syncPoint() {
			m.activatePending()
		}
		t := &b.Tokens[i]
		deliver, skip := m.step(t)
		m.deliver(t, deliver, skip)
	}
}

// syncPoint reports whether queued subscriptions can join before the
// next token: the stream is before the root or between complete
// top-level subtrees, and someone is waiting.
func (m *Mux) syncPoint() bool {
	return m.stream != nil && m.depth <= 1 && m.stream.npend.Load() > 0
}

// step advances the matcher over token t and returns its delivery
// decision: deliver holds the groups that receive the token, skip (start
// tags only, nil otherwise) the groups that collapse the element into
// one SkipSubtree step and have everything withheld until its end tag.
// One matcher step decides for all groups; the masks are valid until
// the next step. step also tracks the scan depth and, when streaming,
// the root element's name and closure.
func (m *Mux) step(t *sax.Token) (deliver, skip autom.Mask) {
	switch t.Kind {
	case sax.StartElement:
		m.depth++
		if m.stream != nil && m.depth == 1 {
			m.stream.rootName = t.Name
		}
		return m.matcher.Start(t.Name)
	case sax.EndElement:
		deliver = m.matcher.End()
		m.depth--
		if m.stream != nil && m.depth == 0 {
			m.stream.rootClosed = true
		}
		return deliver, nil
	case sax.SkipElement:
		// A scanner-pruned subtree: one SkipSubtree step per group not
		// already skipping. The scan never tokenized the interior, so
		// each group's SkippedEvents advances by one (a lower bound).
		return m.matcher.Skip(), nil
	default:
		// Character data is withheld at mixed-content spine positions
		// (SigNode.DropText), where it is always legal and consumes
		// nothing; non-mixed positions still get it, so stray text fails
		// validation exactly as it does under all-fanout.
		return m.matcher.Text(), nil
	}
}

// deliver hands token t to the live members of the groups set in
// deliver or skip. At a start tag, skip groups get SkipSubtree and
// deliver groups StartElement; any other token goes to the deliver
// groups as the call matching its kind (a SkipElement token as
// SkipSubtree). skip is read at start tags only.
func (m *Mux) deliver(t *sax.Token, deliver, skip autom.Mask) {
	start := t.Kind == sax.StartElement
	for w, word := range deliver {
		var sk uint64
		if start {
			sk = skip[w]
			word |= sk
		}
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &= word - 1
			kind := t.Kind
			if sk>>bit&1 != 0 {
				kind = sax.SkipElement
			}
			for _, i := range m.groups[w<<6+bit].members {
				if !m.live[i] {
					continue
				}
				s := m.sessions[i]
				var err error
				switch kind {
				case sax.StartElement:
					err = s.StartElement(t.Name)
				case sax.EndElement:
					err = s.EndElement(t.Name)
				case sax.SkipElement:
					err = s.SkipSubtree(t.Name)
				default:
					err = s.TextBytes(t.Data)
				}
				if err != nil {
					m.fail(i, err)
				}
			}
		}
	}
}

// Run scans the XML document from r once, delivering every event to all
// registered plans (or, under selective fan-out, to the plans whose
// signature can match it), and returns one Result per plan in Add order.
//
// Per-query failures (schema violations under a plan's DTD, write errors
// on a query's output, a done AddContext context) are isolated in that
// query's Result. The returned error is reserved for stream-level
// failures that necessarily end every query: malformed XML, a read
// error, a done scan context, or all queries having failed. A nil ctx
// means the scan itself is never canceled.
func (m *Mux) Run(ctx context.Context, r io.Reader, opt sax.Options) ([]Result, error) {
	if m.stream != nil {
		return nil, errors.New("mux: Run on a streaming mux (use BeginStream/EndStream)")
	}
	if m.ran {
		return nil, errors.New("mux: Run called twice")
	}
	m.ran = true
	if ctx == nil {
		ctx = context.Background()
	}
	if m.selective {
		m.buildGroups()
		// Prune, at the scan itself, the subtrees every group skips: their
		// bytes are consumed raw and arrive as single SkipElement tokens
		// instead of being tokenized and routed token by token. Subtrees
		// only some groups skip are still routed here.
		opt.Prune = m.machine.Prune()
	}
	for i, s := range m.sessions {
		if !m.live[i] {
			continue
		}
		if err := s.Begin(); err != nil {
			m.fail(i, err)
		}
	}
	if m.nlive > 0 {
		err := sax.ScanBatchedContext(ctx, r, m, opt)
		if m.nlive == 0 {
			// All queries failed mid-stream; the scan aborted after the
			// batch holding the last failure.
			m.fillSkipped()
			return m.results, errAllFailed
		}
		if err != nil {
			m.fillSkipped()
			// The stream itself is bad: every remaining query inherits
			// the failure.
			for i := range m.sessions {
				if m.live[i] {
					m.fail(i, err)
				}
			}
			return m.results, err
		}
	} else if len(m.sessions) > 0 {
		return m.results, errAllFailed
	}
	for i, s := range m.sessions {
		if !m.live[i] {
			continue
		}
		st, err := s.Finish()
		m.results[i] = Result{Stats: st, Err: err}
		m.live[i] = false
	}
	m.nlive = 0
	m.fillSkipped()
	return m.results, nil
}

// fillSkipped copies each routing group's skip counter onto its
// members' Results.
func (m *Mux) fillSkipped() {
	if !m.selective {
		return
	}
	m.matcher.Flush()
	for i := range m.results {
		m.results[i].SkippedEvents = m.matcher.Skipped(m.slotGroup[i])
	}
}
