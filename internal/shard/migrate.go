package shard

// Live placement changes: the router-driven protocol that adds, moves
// and drops document copies with zero dropped queries and byte-
// identical results throughout. A move is a replica add that drops its
// source, so one function (Router.place) drives all three over the
// Topology's Change:
//
//  1. Register — validate and register {doc, gain, lose} (routing
//                untouched);
//  2. copy     — when a shard gains a copy, stream the document bytes
//                and DTD from an owning worker (/admin/fetch) into the
//                gaining one (/admin/install), which registers the copy
//                into its live catalog;
//  3. Publish  — publish owners ∪ {gain} ∖ {lose} in one epoch: new
//                queries route on the new owner set while queries
//                admitted under earlier epochs finish where they were
//                routed;
//  4. drain    — when a copy lost routing, wait until the router's
//                per-epoch in-flight counts for every earlier epoch
//                reach zero, then unregister that copy (/admin/retire);
//  5. Release  — forget the change.
//
// A copy failure releases the change before any routing change. A drain
// that ends early (its ctx is done) keeps the published routing — every
// new owner holds a complete copy — and leaves the losing copy
// installed but unrouted, with a warning; a later add onto that shard
// replaces it rather than trusting it. A retire failure after a clean
// drain is a warning too: no query routes to that copy anymore.
//
// The protocol assumes this router is the tier's only query path: the
// epoch accounting and drain barrier cover the queries *this* process
// proxies. A second router over the same workers (or clients querying
// workers directly) is not covered — its traffic can still reach a
// losing copy after the retire. Run one router per tier when changing
// placement live, or put the driving router in front of the rest.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// epochTracker counts in-flight proxied queries per topology epoch and
// lets a migration wait until every query routed under an old epoch has
// finished — the drain barrier between cutover and source retire.
type epochTracker struct {
	mu      sync.Mutex
	counts  map[int64]int64
	waiters []*epochWaiter
}

// epochWaiter is one drain barrier: ch closes once no query is in
// flight under any epoch <= upTo.
type epochWaiter struct {
	upTo int64
	ch   chan struct{}
}

// enter counts one query in flight under epoch.
func (t *epochTracker) enter(epoch int64) {
	t.mu.Lock()
	if t.counts == nil {
		t.counts = make(map[int64]int64)
	}
	t.counts[epoch]++
	t.mu.Unlock()
}

// exit retires one query from epoch and releases any drain barrier its
// completion satisfies.
func (t *epochTracker) exit(epoch int64) {
	t.mu.Lock()
	if t.counts[epoch]--; t.counts[epoch] <= 0 {
		delete(t.counts, epoch)
	}
	rest := t.waiters[:0]
	for _, w := range t.waiters {
		if t.busyLocked(w.upTo) {
			rest = append(rest, w)
			continue
		}
		close(w.ch)
	}
	t.waiters = rest
	t.mu.Unlock()
}

// snapshot returns the current in-flight count per epoch.
func (t *epochTracker) snapshot() map[int64]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]int64, len(t.counts))
	for e, n := range t.counts {
		out[e] = n
	}
	return out
}

// busyLocked reports whether any query is in flight under an epoch <=
// upTo. Caller holds t.mu.
func (t *epochTracker) busyLocked(upTo int64) bool {
	for e, n := range t.counts {
		if e <= upTo && n > 0 {
			return true
		}
	}
	return false
}

// wait blocks until no query is in flight under any epoch <= upTo, or
// ctx ends. New queries cannot extend the wait: they enter under the
// current (post-cutover) epoch, which is > upTo.
func (t *epochTracker) wait(ctx context.Context, upTo int64) error {
	t.mu.Lock()
	if !t.busyLocked(upTo) {
		t.mu.Unlock()
		return nil
	}
	w := &epochWaiter{upTo: upTo, ch: make(chan struct{})}
	t.waiters = append(t.waiters, w)
	t.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		t.mu.Lock()
		for i, other := range t.waiters {
			if other == w {
				t.waiters = append(t.waiters[:i], t.waiters[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
		return ctx.Err()
	}
}

// MigrateReport is what one live placement change did: the
// /admin/migrate response, and the result of AddReplica and
// DropReplica.
type MigrateReport struct {
	// Doc is the document whose placement changed.
	Doc string `json:"doc"`
	// From is the shard that lost its copy (a move or a drop), or that
	// the new copy was fetched from (an add).
	From int `json:"from"`
	// To is the shard that gained a copy; -1 for a drop.
	To int `json:"to"`
	// Epoch is the topology epoch the change published — the first
	// epoch under which the new owner set routes.
	Epoch int64 `json:"epoch"`
	// Resumed reports that the gaining shard already held an unrouted
	// copy under the name (left by an earlier change); the stale copy
	// was retired and replaced with a fresh one — never trusted — so an
	// intervening hot-swap on the source cannot leak old bytes through.
	Resumed bool `json:"resumed,omitempty"`
	// Warning reports non-fatal trouble after routing changed: a drain
	// that ended early or a retire that failed, each leaving an unrouted
	// copy on the losing shard. The change stands regardless.
	Warning string `json:"warning,omitempty"`
}

// MigrateDoc moves doc from shard `from` to shard `to` live: a replica
// add on `to` that drops `from` — copy, publish, drain, retire. Queries
// keep answering with byte-identical results throughout, because every
// request routes on a consistent topology view and the source copy
// outlives every query routed to it. ctx bounds the whole change; if it
// ends mid-drain, routing stays on the target and the source copy is
// left installed but unrouted (see MigrateReport.Warning).
func (rt *Router) MigrateDoc(ctx context.Context, doc string, from, to int) (MigrateReport, error) {
	if from < 0 || to < 0 {
		return MigrateReport{Doc: doc, From: from, To: to}, fmt.Errorf("shard: migrate %q: shard ids must be non-negative (from %d, to %d)", doc, from, to)
	}
	return rt.place(ctx, doc, to, from)
}

// AddReplica gives doc an additional replica on shard `to`, live: the
// copy is fetched from the least-loaded live owner, and only once the
// install succeeded does the topology publish the grown replica set. A
// copy failure — source dead, target dead, anything — leaves the
// topology unchanged; the rebalancer (or an operator) simply retries.
func (rt *Router) AddReplica(ctx context.Context, doc string, to int) (MigrateReport, error) {
	return rt.place(ctx, doc, to, noShard)
}

// DropReplica removes doc's replica from shard `on`, live: the shrunk
// replica set is published first, then every query admitted under an
// earlier epoch is drained (it may still be scanning the dropped copy),
// and only then is the copy retired. The last owner cannot be dropped.
func (rt *Router) DropReplica(ctx context.Context, doc string, on int) (MigrateReport, error) {
	return rt.place(ctx, doc, noShard, on)
}

// place drives one placement change of doc — shard gain gains a copy,
// shard lose loses one, either noShard when absent — through the
// protocol in this file's header: register, copy, publish, drain and
// retire, release. An error means routing did not change; trouble after
// the publish is a report warning.
func (rt *Router) place(ctx context.Context, doc string, gain, lose int) (MigrateReport, error) {
	rep := MigrateReport{Doc: doc, From: lose, To: gain}
	c, err := rt.topo.Register(doc, gain, lose)
	if err != nil {
		return rep, err
	}
	defer rt.topo.Release(c)
	if gain != noShard {
		// A move copies from the shard it drains; an add from the
		// least-loaded owner. The owner set cannot change under a
		// registered change, so the source stays valid.
		src := lose
		if src == noShard {
			src = rt.replicaSource(doc)
			rep.From = src
		}
		if rep.Resumed, err = rt.copyInto(ctx, doc, src, gain); err != nil {
			return rep, fmt.Errorf("%w: copying %q from shard %d to %d: %v", errMigrateCopy, doc, src, gain, err)
		}
	}
	drainUpTo, err := rt.topo.Publish(c)
	if err != nil {
		return rep, err
	}
	// Our own epoch, not the global current one — a concurrent change of
	// another document may already have published further epochs.
	rep.Epoch = drainUpTo + 1
	if lose == noShard {
		return rep, nil
	}
	if err := rt.inflight.wait(ctx, drainUpTo); err != nil {
		// Routing already moved on; the copy stays installed (harmless,
		// unrouted) rather than being retired under in-flight queries.
		rep.Warning = fmt.Sprintf("drain interrupted: %v (unrouted copy left on shard %d)", err, lose)
		return rep, nil
	}
	if err := rt.backends[lose].client.Retire(ctx, doc); err != nil {
		// Typically a source that died mid-drain; it must not undo the
		// change — nothing routes to the copy anymore.
		rep.Warning = fmt.Sprintf("retire failed: %v (unrouted copy may remain on shard %d)", err, lose)
	}
	return rep, nil
}

// copyInto installs a fresh copy of doc from shard src on shard dst and
// reports whether a stale copy had to be replaced first. A same-name
// copy already on dst was left behind by an earlier change (the
// registered change guarantees dst is not an owner, so nothing routes
// to it now). It cannot be trusted — the source may have been
// hot-swapped since — so it is retired and copied fresh, but only after
// every epoch before the current one has drained: queries admitted
// while it was still routed may be queued on it and would 404 if it
// vanished under them.
func (rt *Router) copyInto(ctx context.Context, doc string, src, dst int) (resumed bool, err error) {
	from, to := rt.backends[src].client, rt.backends[dst].client
	if err := copyDoc(ctx, doc, from, to); !errors.Is(err, ErrAlreadyInstalled) {
		return false, err
	}
	if err := rt.inflight.wait(ctx, rt.topo.Epoch()-1); err != nil {
		return true, fmt.Errorf("draining before replacing stale target copy: %v", err)
	}
	if err := to.Retire(ctx, doc); err != nil {
		return true, fmt.Errorf("replacing stale target copy: %v", err)
	}
	return true, copyDoc(ctx, doc, from, to)
}

// replicaSource picks the owner of doc to fetch a replica copy from:
// live owners before dead ones (a dead source still gets tried — the
// fetch fails fast and the add fails cleanly), less loaded before more.
func (rt *Router) replicaSource(doc string) int {
	best := -1
	var bestDead bool
	var bestScore int64
	for _, id := range rt.topo.View().Owners(doc) {
		b := rt.backends[id]
		dead, score := !b.alive.Load(), b.load.Load()+b.inflight.Load()
		if best < 0 || (bestDead && !dead) || (bestDead == dead && score < bestScore) {
			best, bestDead, bestScore = id, dead, score
		}
	}
	return best
}

// copyDoc streams a document and its DTD from the source worker into
// the target worker's catalog, never materializing the document in
// router memory.
func copyDoc(ctx context.Context, doc string, src, dst *Client) error {
	docBody, err := src.Fetch(ctx, doc, "doc")
	if err != nil {
		return err
	}
	defer docBody.Close()
	dtdBody, err := src.Fetch(ctx, doc, "dtd")
	if err != nil {
		return err
	}
	defer dtdBody.Close()
	return dst.Install(ctx, doc, docBody, dtdBody)
}

// handleMigrate serves POST /admin/migrate?doc=X&from=A&to=B: the
// operator entry point to MigrateDoc. Validation problems answer 400
// (409 for a document already changing placement); copy failures answer
// 502 with the protocol step in the message. Trouble after routing
// changed answers 200 with the report's warning.
func (rt *Router) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST /admin/migrate?doc=name&from=A&to=B", http.StatusMethodNotAllowed)
		return
	}
	doc := r.URL.Query().Get("doc")
	from, errF := strconv.Atoi(r.URL.Query().Get("from"))
	to, errT := strconv.Atoi(r.URL.Query().Get("to"))
	if doc == "" || errF != nil || errT != nil {
		http.Error(w, "doc, from and to parameters are required (from/to are shard ids)", http.StatusBadRequest)
		return
	}
	rep, err := rt.MigrateDoc(r.Context(), doc, from, to)
	if err != nil {
		http.Error(w, err.Error(), migrateErrStatus(err))
		return
	}
	writeJSON(w, rep)
}

// migrateErrStatus maps a MigrateDoc failure to its HTTP status: 409
// for a document whose placement is already changing, 502 when a worker
// failed the copy — a problem upstream of the router — and 400 for
// request validation (unknown doc, bad shard ids).
func migrateErrStatus(err error) int {
	switch {
	case errors.Is(err, ErrMigrationPending):
		return http.StatusConflict
	case errors.Is(err, errMigrateCopy):
		return http.StatusBadGateway
	default:
		return http.StatusBadRequest
	}
}

// errMigrateCopy marks a placement change that failed while copying the
// document to the gaining shard — an upstream worker problem, not a bad
// request.
var errMigrateCopy = errors.New("shard: migration copy failed")
