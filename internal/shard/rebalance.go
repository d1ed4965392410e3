package shard

// The autonomous rebalancing control plane: a background router loop
// (Rebalancer) that watches a windowed, exponentially decaying
// per-(document, shard) load signal and, each tick, either *moves* the
// hottest document to the least-loaded live shard (MigrateDoc) or
// *adds a replica* of it there (AddReplica) so hot read bursts fan out
// across copies. Hysteresis keeps placements stable: a global cooldown
// after every successful action and a minimum-imbalance threshold
// below which the tier is left alone, so an oscillating load cannot
// make a document ping-pong between shards.
//
// The loop per tick:
//
//  1. fold    — drain the router's per-(doc, shard) counts observed
//               since the last tick into the decayed signal
//               (signal = signal*Decay + window);
//  2. gate    — inside the cooldown window after a successful action,
//               do nothing;
//  3. decide  — find the hottest routed (doc, shard) pair and the
//               least-loaded live shard without a replica of that doc;
//               if the load difference is below Threshold, do nothing;
//               otherwise replicate when the hot document dominates
//               its shard's load (>= ReplicateShare — moving it would
//               only move the hot spot) and migrate when the shard is
//               hot in aggregate. When no add/move is due, check the
//               release rule: a replicated document whose total decayed
//               signal has sat below ReleaseThreshold for a full
//               cooldown window sheds one excess replica (a drop),
//               reclaiming the capacity a faded burst left pinned;
//  4. act     — run the placement change over the live protocol
//               (Router.place). A failure (dead source, dead target,
//               copy error) leaves the topology unchanged and does NOT
//               engage the cooldown, so the next tick retries.
//
// The release rule is hysteresis-symmetric with the add rule: a
// replica is added only when the imbalance exceeds Threshold, dropped
// only after the signal stays below the (strictly smaller)
// ReleaseThreshold for a whole Cooldown, and every successful action —
// add or drop — re-engages the cooldown. A fading burst therefore
// produces at most one add and, once it is provably cold, one drop;
// it cannot make a document's replica set flap.
//
// Everything the loop knows is observable at /admin/rebalancer.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// loadKey identifies one (document, shard) pairing of the load signal:
// a query for doc that this router proxied to shard.
type loadKey struct {
	doc   string
	shard int
}

// loadSignal accumulates the per-(doc, shard) query counts the router
// observes between rebalancer ticks — the raw window the decayed
// signal is folded from.
type loadSignal struct {
	mu     sync.Mutex
	recent map[loadKey]int64
}

// observe counts one query for doc proxied to shard.
func (s *loadSignal) observe(doc string, shard int) {
	s.mu.Lock()
	if s.recent == nil {
		s.recent = make(map[loadKey]int64)
	}
	s.recent[loadKey{doc, shard}]++
	s.mu.Unlock()
}

// drain returns the counts observed since the last drain and resets
// the window.
func (s *loadSignal) drain() map[loadKey]int64 {
	s.mu.Lock()
	out := s.recent
	s.recent = nil
	s.mu.Unlock()
	return out
}

// tierControl is the slice of the Router the Rebalancer drives:
// topology view, liveness, the observed load window, and the live
// placement change (shard gain gains a copy of doc, shard lose loses
// one, either noShard when absent). Hysteresis tests substitute a fake
// that records decisions instead of copying documents.
type tierControl interface {
	view() *View
	liveShards() []int
	takeLoad() map[loadKey]int64
	place(ctx context.Context, doc string, gain, lose int) (MigrateReport, error)
}

// RebalancerOptions configures a Rebalancer. The zero value of every
// field picks a sensible default; only Interval changes the mode of
// operation (positive runs the background loop, zero or negative means
// the owner drives Tick by hand).
type RebalancerOptions struct {
	// Interval is the tick period of the background loop. Zero or
	// negative starts no loop: the rebalancer only acts when Tick is
	// called — the deterministic mode tests and operators' one-shot
	// tooling use.
	Interval time.Duration
	// Cooldown is the hysteresis window: after a successful placement
	// action the rebalancer stays idle this long, no matter what the
	// signal does. Zero means 5×Interval (or 10s in manual-tick mode).
	Cooldown time.Duration
	// Threshold is the minimum per-window load imbalance (hottest
	// shard's decayed signal minus the target's) that justifies a
	// placement action; below it the tier is considered balanced.
	// Zero means 8.
	Threshold float64
	// Decay is the per-tick multiplier applied to the signal before the
	// fresh window is added (signal = signal*Decay + window); smaller
	// forgets faster. Zero means 0.5; values outside (0, 1) are
	// rejected.
	Decay float64
	// ReplicateShare decides replica-add vs migrate: when the hottest
	// document accounts for at least this share of its shard's load,
	// moving it would only move the hot spot, so the rebalancer adds a
	// replica and lets the router fan the burst out; below it the shard
	// is hot in aggregate and the document migrates. Zero means 0.75.
	ReplicateShare float64
	// MaxReplicas caps a document's replica set; once reached the
	// rebalancer migrates instead of replicating further. Zero means
	// the shard count (fully replicated).
	MaxReplicas int
	// ReleaseThreshold is the release side of the hysteresis band: a
	// document with more than one replica whose total decayed signal
	// stays below this value for a full Cooldown window has one excess
	// replica dropped per action (never the last copy). It must be
	// strictly below Threshold — the gap between the two is what keeps a
	// load level near the boundary from alternating add and drop. Zero
	// means Threshold/4.
	ReleaseThreshold float64
}

// Action kinds, as RebalanceAction.Kind and /admin/rebalancer report
// them.
const (
	// ActionMigrate moved the hottest document to a less-loaded shard.
	ActionMigrate = "migrate"
	// ActionReplicate added a replica of the hottest document on a
	// less-loaded shard.
	ActionReplicate = "replicate"
	// ActionDrop released an excess replica of a document whose signal
	// stayed below ReleaseThreshold for a full cooldown window. From and
	// To both name the shard that lost the copy.
	ActionDrop = "drop-replica"
)

// signalEpsilon is the decayed load below which a signal entry is
// dropped rather than decayed forever.
const signalEpsilon = 0.05

// manualCooldown is the default cooldown in manual-tick mode, where no
// Interval exists to derive one from.
const manualCooldown = 10 * time.Second

// Rebalancer is the autonomous placement control plane of one router.
// Construct with NewRebalancer (at most one per router); Close stops
// the background loop. All methods are safe for concurrent use.
type Rebalancer struct {
	tier tierControl
	opt  RebalancerOptions
	now  func() time.Time // fake-clock hook for hysteresis tests

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu              sync.Mutex
	load            map[loadKey]float64
	coldSince       map[string]time.Time // doc -> start of its below-release window
	lastAction      time.Time
	last            *RebalanceAction
	reason          string
	ticks           int64
	actions         int64
	migrations      int64
	replicasAdded   int64
	replicasDropped int64
	failures        int64
}

// NewRebalancer attaches a rebalancer to rt and, when opt.Interval is
// positive, starts its background loop (stopped by Close — the
// router's own Close does this too). A router holds at most one
// rebalancer; a second NewRebalancer on the same router fails.
func NewRebalancer(rt *Router, opt RebalancerOptions) (*Rebalancer, error) {
	rb, err := newRebalancer(rt, opt)
	if err != nil {
		return nil, err
	}
	if !rt.rebal.CompareAndSwap(nil, rb) {
		return nil, errors.New("shard: router already has a rebalancer")
	}
	if rb.opt.Interval > 0 {
		rb.wg.Add(1)
		go rb.loop()
	}
	return rb, nil
}

// newRebalancer validates and defaults the options around a tier; the
// background loop is the caller's business.
func newRebalancer(tier tierControl, opt RebalancerOptions) (*Rebalancer, error) {
	if opt.Decay < 0 || opt.Decay >= 1 {
		return nil, fmt.Errorf("shard: rebalancer decay must be in (0, 1), got %v", opt.Decay)
	}
	if opt.Decay == 0 {
		opt.Decay = 0.5
	}
	if opt.Threshold < 0 {
		return nil, fmt.Errorf("shard: rebalancer threshold must be non-negative, got %v", opt.Threshold)
	}
	if opt.Threshold == 0 {
		opt.Threshold = 8
	}
	if opt.ReplicateShare < 0 || opt.ReplicateShare > 1 {
		return nil, fmt.Errorf("shard: rebalancer replicate share must be in [0, 1], got %v", opt.ReplicateShare)
	}
	if opt.ReplicateShare == 0 {
		opt.ReplicateShare = 0.75
	}
	if opt.MaxReplicas == 0 {
		opt.MaxReplicas = tier.view().Shards()
	}
	if opt.ReleaseThreshold < 0 {
		return nil, fmt.Errorf("shard: rebalancer release threshold must be non-negative, got %v", opt.ReleaseThreshold)
	}
	if opt.ReleaseThreshold == 0 {
		opt.ReleaseThreshold = opt.Threshold / 4
	}
	if opt.ReleaseThreshold >= opt.Threshold {
		return nil, fmt.Errorf("shard: rebalancer release threshold (%v) must be below the add threshold (%v) — the gap is the hysteresis band",
			opt.ReleaseThreshold, opt.Threshold)
	}
	if opt.Cooldown == 0 {
		if opt.Interval > 0 {
			opt.Cooldown = 5 * opt.Interval
		} else {
			opt.Cooldown = manualCooldown
		}
	}
	return &Rebalancer{
		tier:      tier,
		opt:       opt,
		now:       time.Now,
		stop:      make(chan struct{}),
		load:      make(map[loadKey]float64),
		coldSince: make(map[string]time.Time),
	}, nil
}

// Close stops the background loop (cancelling an action in flight) and
// waits for it to exit. Safe to call more than once.
func (rb *Rebalancer) Close() {
	rb.stopOnce.Do(func() { close(rb.stop) })
	rb.wg.Wait()
}

// loop ticks until Close. Each tick's action runs under a context that
// Close cancels, so a stop mid-drain ends the drain early rather than
// blocking shutdown: the published placement stands and the losing
// copy stays installed, unrouted.
func (rb *Rebalancer) loop() {
	defer rb.wg.Done()
	t := time.NewTicker(rb.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-rb.stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			select {
			case <-rb.stop:
				cancel()
			case <-done:
			}
		}()
		rb.Tick(ctx)
		close(done)
		cancel()
	}
}

// Tick runs one control-loop iteration — fold the observed window into
// the decayed signal, gate on the cooldown, decide, act — and reports
// whether a placement action succeeded. The background loop calls it
// every Interval; tests and one-shot tooling call it directly.
func (rb *Rebalancer) Tick(ctx context.Context) bool {
	rb.mu.Lock()
	rb.ticks++
	rb.fold(rb.tier.takeLoad())
	// The release clock runs on every tick — through the cooldown gate
	// below included — so a document's below-threshold window accumulates
	// while the gate is closed and the drop fires as soon as both the
	// window and the cooldown have elapsed.
	rb.trackRelease()
	if wait := rb.opt.Cooldown - rb.now().Sub(rb.lastAction); !rb.lastAction.IsZero() && wait > 0 {
		rb.reason = fmt.Sprintf("cooldown: %v until the next action may run", wait.Round(time.Millisecond))
		rb.mu.Unlock()
		return false
	}
	act, reason := rb.decide()
	if act == nil {
		// No hot add/move due: a provably cold replica set may shed a
		// copy instead.
		if act = rb.decideDrop(); act == nil {
			rb.reason = reason
			rb.mu.Unlock()
			return false
		}
	}
	rb.mu.Unlock()

	gain, lose := act.To, act.From
	switch act.Kind {
	case ActionReplicate:
		lose = noShard
	case ActionDrop:
		gain = noShard
	}
	rep, err := rb.tier.place(ctx, act.Doc, gain, lose)

	rb.mu.Lock()
	defer rb.mu.Unlock()
	act.Time = rb.now()
	act.Epoch = rep.Epoch
	rb.last = act
	if err != nil {
		// The tier did not change; leave the cooldown disengaged so the
		// next tick retries the (re-decided) action.
		act.Err = err.Error()
		rb.failures++
		rb.reason = fmt.Sprintf("%s %q -> shard %d failed, retrying next tick: %v", act.Kind, act.Doc, act.To, err)
		return false
	}
	rb.actions++
	switch act.Kind {
	case ActionReplicate:
		rb.replicasAdded++
	case ActionDrop:
		rb.replicasDropped++
		// The dropped copy's residual signal is stale the moment routing
		// moves on; clearing it (and the release clock) makes the next
		// window start from scratch.
		delete(rb.load, loadKey{act.Doc, act.To})
		delete(rb.coldSince, act.Doc)
	default:
		rb.migrations++
	}
	rb.lastAction = act.Time
	if act.Kind == ActionDrop {
		rb.reason = fmt.Sprintf("%s %q: replica dropped from shard %d (epoch %d)", act.Kind, act.Doc, act.To, rep.Epoch)
	} else {
		rb.reason = fmt.Sprintf("%s %q: shard %d -> %d (epoch %d)", act.Kind, act.Doc, act.From, act.To, rep.Epoch)
	}
	return true
}

// trackRelease advances the release clock: every document with more
// than one replica whose total decayed signal sits below
// ReleaseThreshold keeps (or starts) its cold window; any document at
// or above the threshold — or back to a single copy — forgets it.
// Caller holds rb.mu.
func (rb *Rebalancer) trackRelease() {
	view := rb.tier.view()
	totals := make(map[string]float64)
	for k, v := range rb.load {
		totals[k.doc] += v
	}
	now := rb.now()
	seen := make(map[string]bool)
	for _, doc := range view.Docs() {
		seen[doc] = true
		if len(view.Owners(doc)) < 2 || totals[doc] >= rb.opt.ReleaseThreshold {
			delete(rb.coldSince, doc)
			continue
		}
		if _, ok := rb.coldSince[doc]; !ok {
			rb.coldSince[doc] = now
		}
	}
	for doc := range rb.coldSince {
		if !seen[doc] {
			delete(rb.coldSince, doc)
		}
	}
}

// decideDrop picks the tick's replica release, or nil when no document
// has been cold for a full cooldown window. The document choice is
// deterministic (lexicographically smallest eligible name); the copy
// dropped is the owner with the least residual signal for the
// document, ties going to the higher-numbered shard (the later-added
// replica, under addOwner's ordering). One drop per tick — the action
// engages the cooldown like any other. Caller holds rb.mu.
func (rb *Rebalancer) decideDrop() *RebalanceAction {
	view := rb.tier.view()
	now := rb.now()
	var doc string
	for d, since := range rb.coldSince {
		if now.Sub(since) < rb.opt.Cooldown {
			continue
		}
		if len(view.Owners(d)) < 2 {
			continue
		}
		if doc == "" || d < doc {
			doc = d
		}
	}
	if doc == "" {
		return nil
	}
	owners := view.Owners(doc)
	drop := -1
	var dropLoad float64
	for _, id := range owners {
		v := rb.load[loadKey{doc, id}]
		if drop < 0 || v < dropLoad || (v == dropLoad && id > drop) {
			drop, dropLoad = id, v
		}
	}
	return &RebalanceAction{Kind: ActionDrop, Doc: doc, From: drop, To: drop}
}

// fold decays the signal one window and adds the fresh counts. Caller
// holds rb.mu.
func (rb *Rebalancer) fold(recent map[loadKey]int64) {
	for k, v := range rb.load {
		v *= rb.opt.Decay
		if v < signalEpsilon {
			delete(rb.load, k)
			continue
		}
		rb.load[k] = v
	}
	for k, n := range recent {
		rb.load[k] += float64(n)
	}
}

// decide picks the tick's placement action, or explains the no-op.
// Caller holds rb.mu.
//
// Only placements the current epoch still routes count — a document's
// signal on a shard it already left is stale, not hot. The hottest
// pair is chosen without regard to the shard's liveness: the signal
// means the shard served recently, probes lag, and acting on a
// just-died source fails cleanly and retries. Targets, by contrast,
// must be probed live — installing into a dead shard can only fail.
func (rb *Rebalancer) decide() (*RebalanceAction, string) {
	view := rb.tier.view()
	live := make(map[int]bool)
	for _, id := range rb.tier.liveShards() {
		live[id] = true
	}
	shardLoad := make([]float64, view.Shards())
	var hot loadKey
	var hotLoad float64
	for k, v := range rb.load {
		if k.shard < 0 || k.shard >= view.Shards() || !containsInt(view.Owners(k.doc), k.shard) {
			continue
		}
		shardLoad[k.shard] += v
		// Deterministic tie-break so equal signals decide identically
		// across runs (map iteration order is not stable).
		if v > hotLoad || (v == hotLoad && hotLoad > 0 && (k.doc < hot.doc || (k.doc == hot.doc && k.shard < hot.shard))) {
			hotLoad, hot = v, k
		}
	}
	if hotLoad <= 0 {
		return nil, "no routed load observed yet"
	}
	owners := view.Owners(hot.doc)
	target := -1
	for id := 0; id < view.Shards(); id++ {
		if !live[id] || containsInt(owners, id) {
			continue
		}
		if target < 0 || shardLoad[id] < shardLoad[target] {
			target = id
		}
	}
	if target < 0 {
		return nil, fmt.Sprintf("no live shard without a replica of hot document %q", hot.doc)
	}
	imbalance := shardLoad[hot.shard] - shardLoad[target]
	if imbalance < rb.opt.Threshold {
		return nil, fmt.Sprintf("imbalance %.1f below threshold %.1f", imbalance, rb.opt.Threshold)
	}
	kind := ActionMigrate
	if hotLoad >= rb.opt.ReplicateShare*shardLoad[hot.shard] && len(owners) < rb.opt.MaxReplicas {
		kind = ActionReplicate
	}
	return &RebalanceAction{Kind: kind, Doc: hot.doc, From: hot.shard, To: target}, ""
}

// RebalanceAction is one placement action the rebalancer attempted, as
// /admin/rebalancer reports it.
type RebalanceAction struct {
	// Kind is ActionMigrate, ActionReplicate or ActionDrop.
	Kind string `json:"kind"`
	// Doc is the hot document acted on.
	Doc string `json:"doc"`
	// From is the shard the document was hottest on. Not omitempty:
	// shard 0 is a legitimate value.
	From int `json:"from"`
	// To is the target shard.
	To int `json:"to"`
	// Epoch is the topology epoch the action published; 0 when it
	// failed before publishing.
	Epoch int64 `json:"epoch,omitempty"`
	// Time is when the action finished.
	Time time.Time `json:"time"`
	// Err is the failure, empty on success.
	Err string `json:"error,omitempty"`
}

// SignalEntry is one (document, shard) pair of the decayed load
// signal, as /admin/rebalancer reports it.
type SignalEntry struct {
	// Doc is the document queried.
	Doc string `json:"doc"`
	// Shard is the shard the queries routed to.
	Shard int `json:"shard"`
	// Load is the decayed per-window query count.
	Load float64 `json:"load"`
}

// maxSignalEntries caps the signal listing in RebalancerStatus.
const maxSignalEntries = 16

// RebalancerStatus is the /admin/rebalancer payload: configuration,
// counters, the last action and decision, and the hottest entries of
// the decayed load signal.
type RebalancerStatus struct {
	// Enabled reports whether a rebalancer is attached to the router at
	// all; every other field is meaningless when false.
	Enabled bool `json:"enabled"`
	// Interval is the background tick period, or "manual" when the
	// owner drives Tick by hand.
	Interval string `json:"interval,omitempty"`
	// Cooldown is the hysteresis window after a successful action.
	Cooldown string `json:"cooldown,omitempty"`
	// Threshold is the minimum load imbalance that justifies an action.
	Threshold float64 `json:"threshold,omitempty"`
	// Decay is the per-tick signal decay factor.
	Decay float64 `json:"decay,omitempty"`
	// ReplicateShare is the replica-add vs migrate decision boundary.
	ReplicateShare float64 `json:"replicate_share,omitempty"`
	// MaxReplicas caps a document's replica set.
	MaxReplicas int `json:"max_replicas,omitempty"`
	// ReleaseThreshold is the decayed total signal below which a
	// replicated document starts its cold window.
	ReleaseThreshold float64 `json:"release_threshold,omitempty"`
	// Ticks counts control-loop iterations.
	Ticks int64 `json:"ticks"`
	// Actions counts successful placement actions.
	Actions int64 `json:"actions"`
	// Migrations counts the actions that moved a document.
	Migrations int64 `json:"migrations"`
	// ReplicasAdded counts the actions that added a replica.
	ReplicasAdded int64 `json:"replicas_added"`
	// ReplicasDropped counts the actions that released a cold replica.
	ReplicasDropped int64 `json:"replicas_dropped"`
	// Failures counts actions that failed and were left for the next
	// tick to retry.
	Failures int64 `json:"failures"`
	// LastReason explains the latest tick's outcome (acted, cooldown,
	// below threshold, ...).
	LastReason string `json:"last_reason,omitempty"`
	// CooldownRemaining is how long the hysteresis gate stays closed,
	// empty when open.
	CooldownRemaining string `json:"cooldown_remaining,omitempty"`
	// LastAction is the most recent attempted action, failed or not.
	LastAction *RebalanceAction `json:"last_action,omitempty"`
	// Signal lists the hottest decayed (doc, shard) entries, strongest
	// first, capped at 16.
	Signal []SignalEntry `json:"signal,omitempty"`
}

// Status snapshots the rebalancer for /admin/rebalancer.
func (rb *Rebalancer) Status() RebalancerStatus {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	st := RebalancerStatus{
		Enabled:          true,
		Interval:         "manual",
		Cooldown:         rb.opt.Cooldown.String(),
		Threshold:        rb.opt.Threshold,
		Decay:            rb.opt.Decay,
		ReplicateShare:   rb.opt.ReplicateShare,
		MaxReplicas:      rb.opt.MaxReplicas,
		ReleaseThreshold: rb.opt.ReleaseThreshold,
		Ticks:            rb.ticks,
		Actions:          rb.actions,
		Migrations:       rb.migrations,
		ReplicasAdded:    rb.replicasAdded,
		ReplicasDropped:  rb.replicasDropped,
		Failures:         rb.failures,
		LastReason:       rb.reason,
	}
	if rb.opt.Interval > 0 {
		st.Interval = rb.opt.Interval.String()
	}
	if !rb.lastAction.IsZero() {
		if wait := rb.opt.Cooldown - rb.now().Sub(rb.lastAction); wait > 0 {
			st.CooldownRemaining = wait.Round(time.Millisecond).String()
		}
	}
	if rb.last != nil {
		cp := *rb.last
		st.LastAction = &cp
	}
	for k, v := range rb.load {
		st.Signal = append(st.Signal, SignalEntry{Doc: k.doc, Shard: k.shard, Load: v})
	}
	sort.Slice(st.Signal, func(i, j int) bool {
		si, sj := st.Signal[i], st.Signal[j]
		if si.Load != sj.Load {
			return si.Load > sj.Load
		}
		if si.Doc != sj.Doc {
			return si.Doc < sj.Doc
		}
		return si.Shard < sj.Shard
	})
	if len(st.Signal) > maxSignalEntries {
		st.Signal = st.Signal[:maxSignalEntries]
	}
	return st
}

// --- the Router's side of tierControl --------------------------------------

// view is the rebalancer's topology snapshot.
func (rt *Router) view() *View { return rt.topo.View() }

// liveShards lists the shard ids whose last probe succeeded.
func (rt *Router) liveShards() []int {
	var out []int
	for _, b := range rt.backends {
		if b.alive.Load() {
			out = append(out, b.id)
		}
	}
	return out
}

// takeLoad drains the per-(doc, shard) counts observed since the last
// rebalancer tick.
func (rt *Router) takeLoad() map[loadKey]int64 { return rt.loads.drain() }

// handleRebalancer serves GET /admin/rebalancer: the control plane's
// status report, or {"enabled": false} when the router runs without a
// rebalancer.
func (rt *Router) handleRebalancer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET /admin/rebalancer", http.StatusMethodNotAllowed)
		return
	}
	if rb := rt.rebal.Load(); rb != nil {
		writeJSON(w, rb.Status())
		return
	}
	writeJSON(w, RebalancerStatus{Enabled: false})
}
