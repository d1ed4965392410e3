package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Topology is the versioned placement table of the sharded tier: an
// epoch-stamped sequence of immutable Map snapshots, advanced copy-on-
// write by live placement changes. Readers (the router's query path)
// call View once per request and route on a consistent snapshot without
// locking; writers clone the current map, edit the clone, and publish it
// under the next epoch.
//
// Every placement change — a replica add, a document move, a replica
// drop — is one pending Change {doc, gain, lose}, either side of which
// may be absent (a move is a replica add that drops its source). It
// walks three transitions:
//
//	Register(doc, gain, lose)  validate and register the change; routing
//	                           is untouched while the gaining shard
//	                           installs its copy ("copying")
//	Publish(c)                 publish owners ∪ {gain} ∖ {lose} in one
//	                           epoch; queries admitted under earlier
//	                           epochs may still be scanning the losing
//	                           shard's copy ("draining")
//	Release(c)                 forget the change — once the copy that lost
//	                           routing is retired, or before Publish when
//	                           the copy failed (no routing ever changed)
//
// Only one change per document may be pending at a time, from Register
// to Release; changes of distinct documents may proceed concurrently.
type Topology struct {
	mu      sync.Mutex
	view    atomic.Pointer[View]
	pending map[string]*Change
}

// View is one immutable epoch of the placement table. All read methods
// delegate to the epoch's Map snapshot; the snapshot never changes after
// publication, so a View taken at the top of a request stays internally
// consistent for the request's whole lifetime.
type View struct {
	epoch int64
	m     *Map
}

// Epoch returns the view's epoch number. Epochs start at 1 and increase
// by one per published placement change.
func (v *View) Epoch() int64 { return v.epoch }

// Shards returns the shard count.
func (v *View) Shards() int { return v.m.Shards() }

// Docs returns every mapped document name, sorted.
func (v *View) Docs() []string { return v.m.Docs() }

// Owners returns the shard ids doc routes to under this epoch.
func (v *View) Owners(doc string) []int { return v.m.Owners(doc) }

// DocsFor returns the documents shard id serves under this epoch.
func (v *View) DocsFor(id int) []string { return v.m.DocsFor(id) }

// Placement returns the epoch's full document→owners table as a deep
// copy — the inverse of NewMapFromPlacement, so a live topology (with
// replicas added at runtime) round-trips through a placement or a
// shard-map file losslessly.
func (v *View) Placement() map[string][]int { return v.m.Placement() }

// Change is one pending placement change, created by Register and
// forgotten by Release.
type Change struct {
	doc        string
	gain, lose int         // shard gaining / losing a copy; noShard when absent
	state      changeState // copying until Publish, draining after
	startEpoch int64       // epoch current at Register
	drainEpoch int64       // last epoch that may route to lose; 0 until Publish
}

// noShard marks the absent side of a Change: a replica add loses no
// copy, a replica drop gains none.
const noShard = -1

// changeState is a Change's position in the protocol.
type changeState int

const (
	changeCopying  changeState = iota // gaining shard installing its copy; routing untouched
	changeDraining                    // published; old-epoch queries may still scan the losing copy
)

// String renders the state the way /admin/shards reports it.
func (s changeState) String() string {
	if s == changeDraining {
		return "draining"
	}
	return "copying"
}

// ErrMigrationPending is returned by Register when the document already
// has a placement change in progress; only one per document may be
// pending at a time.
var ErrMigrationPending = fmt.Errorf("shard: migration already pending")

// NewTopology wraps an initial placement map as epoch 1. The map must
// not be mutated by the caller afterwards (ApplyOverrides before, not
// after, handing it over).
func NewTopology(m *Map) *Topology {
	t := &Topology{pending: make(map[string]*Change)}
	t.view.Store(&View{epoch: 1, m: m})
	return t
}

// View returns the current placement snapshot. The result is immutable;
// take it once per request and route every decision of that request on
// it.
func (t *Topology) View() *View { return t.view.Load() }

// Epoch returns the current epoch.
func (t *Topology) Epoch() int64 { return t.View().epoch }

// Register validates and registers a placement change of doc: shard
// gain will gain a copy and shard lose will lose one, either being -1
// when absent. Routing is not changed yet, so a failure before Publish
// needs no rollback beyond Release. It fails when another change of the
// document is pending (ErrMigrationPending), the document is unknown,
// both sides are absent, an id is out of range, gain already owns a
// copy, lose owns none, or lose is the last owner and nothing is gained
// — a document must always route somewhere.
func (t *Topology) Register(doc string, gain, lose int) (*Change, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, dup := t.pending[doc]; dup {
		return nil, fmt.Errorf("%w: %q is changing (gain %d, lose %d, %s)", ErrMigrationPending, doc, old.gain, old.lose, old.state)
	}
	v := t.view.Load()
	owners := v.Owners(doc)
	switch {
	case owners == nil:
		return nil, fmt.Errorf("shard: place %q: unknown document", doc)
	case gain == noShard && lose == noShard:
		return nil, fmt.Errorf("shard: place %q: no shard gains or loses a copy", doc)
	case gain < noShard || gain >= v.Shards():
		return nil, fmt.Errorf("shard: place %q: target shard %d out of range [0, %d)", doc, gain, v.Shards())
	case lose < noShard || lose >= v.Shards():
		return nil, fmt.Errorf("shard: place %q: source shard %d out of range [0, %d)", doc, lose, v.Shards())
	case gain != noShard && containsInt(owners, gain):
		return nil, fmt.Errorf("shard: place %q: shard %d already owns a replica", doc, gain)
	case lose != noShard && !containsInt(owners, lose):
		return nil, fmt.Errorf("shard: place %q: shard %d is not an owner (owners %v)", doc, lose, owners)
	case gain == noShard && len(owners) == 1:
		return nil, fmt.Errorf("shard: place %q: shard %d is the last owner", doc, lose)
	}
	c := &Change{doc: doc, gain: gain, lose: lose, state: changeCopying, startEpoch: v.epoch}
	t.pending[doc] = c
	return c, nil
}

// Publish installs the changed owner set — owners ∪ {gain} ∖ {lose} —
// as the next epoch, in one step. It returns the previous epoch as the
// drain barrier: queries admitted under epochs <= the returned value
// may still be scanning the losing shard's copy, and the caller must
// wait them out before retiring it. The change stays registered until
// Release.
func (t *Topology) Publish(c *Change) (drainBelow int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending[c.doc] != c || c.state != changeCopying {
		return 0, fmt.Errorf("shard: change of %q is not pending publication", c.doc)
	}
	old := t.view.Load()
	next := old.m.clone()
	var ids []int
	for _, id := range next.owners[c.doc] {
		if id != c.lose {
			ids = append(ids, id)
		}
	}
	if c.gain != noShard {
		ids = append(ids, c.gain)
		sort.Ints(ids)
	}
	next.owners[c.doc] = ids
	t.view.Store(&View{epoch: old.epoch + 1, m: next})
	c.state, c.drainEpoch = changeDraining, old.epoch
	return old.epoch, nil
}

// Release forgets a pending change, freeing the document for the next
// one. It never touches routing: released before Publish, the change
// leaves none behind; released after, its published epoch is final.
// Releasing a change that is no longer pending does nothing — in
// particular it cannot free a later change of the same document.
func (t *Topology) Release(c *Change) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending[c.doc] == c {
		delete(t.pending, c.doc)
	}
}

// MigrationStatus is one pending placement change as /admin/shards
// reports it.
type MigrationStatus struct {
	// Doc is the document whose placement is changing.
	Doc string `json:"doc"`
	// From is the shard losing its copy (a move or a drop); -1 for a
	// replica add.
	From int `json:"from"`
	// To is the shard gaining one (an add or a move); -1 for a drop.
	To int `json:"to"`
	// State is "copying" (the gaining shard's copy being installed,
	// routing untouched) or "draining" (routing published; queries
	// admitted under earlier epochs finishing before the losing shard's
	// copy is retired).
	State string `json:"state"`
	// StartEpoch is the epoch current when the change was registered.
	StartEpoch int64 `json:"start_epoch"`
	// DrainEpoch is the epoch whose in-flight queries gate the retire of
	// the losing copy; 0 until published.
	DrainEpoch int64 `json:"drain_epoch,omitempty"`
}

// Pending reports the in-progress placement changes, sorted by
// document.
func (t *Topology) Pending() []MigrationStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]MigrationStatus, 0, len(t.pending))
	for _, c := range t.pending {
		out = append(out, MigrationStatus{
			Doc: c.doc, From: c.lose, To: c.gain,
			State: c.state.String(), StartEpoch: c.startEpoch, DrainEpoch: c.drainEpoch,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
	return out
}

// containsInt reports whether ids contains id.
func containsInt(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
