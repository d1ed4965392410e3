// Package autom compiles a batch of projected-path signatures into one
// merged path automaton — the multi-query optimizer of the shared scan.
//
// Selective fan-out (internal/mux) partitions a batch's plans into
// event-routing groups by signature, but each group still walks its own
// engine.SigNode trie on every token: a batch of G groups pays G cursor
// updates per event even when the groups' paths share long prefixes. A
// Machine merges the group tries into a single trie whose nodes carry
// per-group bitsets, so one traversal step per token yields the set of
// interested groups at once — shared prefixes are matched once for the
// whole batch, and the per-token cost is proportional to the number of
// word-wide mask operations, not the number of groups.
//
// A Machine is immutable after Build and safe to share across
// concurrent scans (the executor caches one per batch signature set); a
// Matcher holds the per-scan state: a stack of (node, active mask)
// frames plus the skip accounting that preserves the exact per-group
// SkippedEvents semantics of the per-group router, including the
// one-token accounting of scanner-pruned subtrees (sax.SkipElement).
package autom

import (
	"math/bits"

	"flux/internal/engine"
	"flux/internal/sax"
)

// Mask is a bitset over a Machine's group indices, one bit per
// event-routing group. Callers iterate set bits word by word (the slice
// layout is the usual packed little-endian one: group g lives in word
// g/64 at bit g%64).
type Mask []uint64

// NewMask returns an all-zero mask sized for n groups.
func NewMask(n int) Mask { return make(Mask, (n+63)/64) }

// Has reports whether group g's bit is set.
func (m Mask) Has(g int) bool { return m[g>>6]&(1<<(g&63)) != 0 }

// Any reports whether any bit is set.
func (m Mask) Any() bool {
	for _, w := range m {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (m Mask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

func (m Mask) set(g int) { m[g>>6] |= 1 << (g & 63) }

func cloneMask(m Mask) Mask { return append(Mask(nil), m...) }

// allOnes returns a mask with the first n bits set.
func allOnes(n int) Mask {
	m := NewMask(n)
	for i := range m {
		m[i] = ^uint64(0)
	}
	if n&63 != 0 {
		m[len(m)-1] = 1<<(n&63) - 1
	}
	return m
}

// Group is one event-routing group's input to Build: its identity (the
// mux group key) and its signature trie. A nil Sig means the group's
// routing behavior is unknown; it is delivered the entire document and
// disables scanner pruning for the whole machine, exactly as the
// per-group router treats a plan without a signature.
type Group struct {
	// Key identifies the group (mux.GroupKey of its plans).
	Key string
	// Sig is the group's projected-path signature, shared by all its
	// plans; read-only.
	Sig *engine.SigNode
}

// node is one state of the merged trie. The masks partition the groups
// by what this stream position means to them; they are precomputed at
// Build so the matcher does pure mask arithmetic per token.
type node struct {
	kids map[string]*node
	// track: groups whose signature has a spine node exactly here — they
	// observe this element's tags and keep routing by name below it.
	track Mask
	// all: groups consuming the entire subtree (an All signature node at
	// or above this position); propagated down every merged descendant.
	all Mask
	// interested = track | all: the groups still active below this node.
	interested Mask
	// text: the groups that receive character data here — all-groups
	// plus tracked groups whose spine node does not carry DropText.
	text Mask
}

// pos pairs a group index with its signature node during the merge.
type pos struct {
	gi  int
	sig *engine.SigNode
}

// Machine is the compiled merged automaton for one set of groups. It is
// immutable after Build: share it freely across concurrent scans and
// create one Matcher per scan.
type Machine struct {
	root    *node
	n       int
	words   int
	states  int
	index   map[string]int
	prune   *sax.PruneNode
	pruneOK bool
}

// Build merges the groups' signature tries into one Machine. Group
// indices follow slice order; Matcher masks and GroupIndex refer to
// them. Signatures are read, never modified.
func Build(groups []Group) *Machine {
	m := &Machine{
		n:       len(groups),
		words:   (len(groups) + 63) / 64,
		index:   make(map[string]int, len(groups)),
		pruneOK: true,
	}
	roots := make([]pos, 0, len(groups))
	inherited := NewMask(m.n)
	for gi, g := range groups {
		m.index[g.Key] = gi
		if g.Sig == nil {
			// No signature: deliver everything to the group and never
			// prune, matching the per-group router's defensive path.
			inherited.set(gi)
			m.pruneOK = false
			continue
		}
		roots = append(roots, pos{gi, g.Sig})
	}
	m.root = m.merge(roots, inherited)
	if m.pruneOK {
		m.prune = toPrune(m.root)
	}
	return m
}

// merge builds the node for one merged position: tracked holds the
// groups whose signature trie reaches exactly here, inherited the
// groups already in all-subtree mode above.
func (m *Machine) merge(tracked []pos, inherited Mask) *node {
	m.states++
	nd := &node{
		track: NewMask(m.n),
		all:   cloneMask(inherited),
	}
	for _, p := range tracked {
		if p.sig.All {
			nd.all.set(p.gi)
		} else {
			nd.track.set(p.gi)
		}
	}
	nd.interested = cloneMask(nd.all)
	for i := range nd.interested {
		nd.interested[i] |= nd.track[i]
	}
	nd.text = cloneMask(nd.all)
	for _, p := range tracked {
		if !p.sig.All && !p.sig.DropText {
			nd.text.set(p.gi)
		}
	}
	kids := make(map[string][]pos)
	for _, p := range tracked {
		if p.sig.All {
			continue // normalized All nodes have no kids
		}
		for name, kid := range p.sig.Kids {
			kids[name] = append(kids[name], pos{p.gi, kid})
		}
	}
	if len(kids) > 0 {
		nd.kids = make(map[string]*node, len(kids))
		for name, kps := range kids {
			nd.kids[name] = m.merge(kps, nd.all)
		}
	}
	return nd
}

// toPrune derives the scanner prune trie from the merged trie: a
// position is prunable only when no group tracks or consumes anything
// inside it — the same decisions mux's per-group signature union makes.
func toPrune(nd *node) *sax.PruneNode {
	if nd.all.Any() {
		// Some group consumes everything below here; nothing may be
		// pruned and kids are irrelevant.
		return &sax.PruneNode{All: true}
	}
	p := &sax.PruneNode{}
	if len(nd.kids) > 0 {
		p.Kids = make(map[string]*sax.PruneNode, len(nd.kids))
		for name, k := range nd.kids {
			p.Kids[name] = toPrune(k)
		}
	}
	return p
}

// NumGroups reports how many groups the machine routes.
func (m *Machine) NumGroups() int { return m.n }

// States reports the number of merged trie nodes — the automaton size
// exported as the automaton_states serving counter.
func (m *Machine) States() int { return m.states }

// GroupIndex returns the index Build assigned to the group with the
// given key.
func (m *Machine) GroupIndex(key string) (int, bool) {
	gi, ok := m.index[key]
	return gi, ok
}

// Prune returns the scanner-level prune trie derived from the merged
// automaton (subtrees every group skips are consumed raw at the scan),
// or nil when any group lacks a signature and pruning must stay off.
func (m *Machine) Prune() *sax.PruneNode { return m.prune }

// frame is one open element of the matcher's stack: the merged trie
// node at that depth (nil below the trie, where only all-mode groups
// remain active) and the groups still receiving events there.
type frame struct {
	node   *node
	active Mask
}

// Matcher is the per-scan state of a Machine: an incremental
// depth-tracking cursor fed one token at a time. Each method returns
// masks describing the delivery decision for that token; returned masks
// are only valid until the next Matcher call. A Matcher is not safe for
// concurrent use.
//
// Skip accounting reproduces the per-group router's SkippedEvents
// exactly: a group deactivated at an element's start tag is charged the
// subtree's interior events plus the closing end tag (the start tag is
// delivered as the SkipSubtree step, not charged); character data
// withheld at a DropText position charges one; a scanner-pruned subtree
// (sax.SkipElement) charges every group one token — so the counter
// stays a lower bound under scanner pruning.
type Matcher struct {
	mach    *Machine
	frames  []frame
	depth   int
	ev      int64 // tokens observed, the clock of skip intervals
	skipped []int64
	mark    []int64 // per group: ev at deactivation
	ones    Mask
	scratch Mask // deactivated / dropped bits, returned or iterated
	deliver Mask // Text's deliver mask when some group drops the token
}

// NewMatcher returns a fresh matcher positioned before the document
// root with every group active.
func (m *Machine) NewMatcher() *Matcher {
	t := &Matcher{
		mach:    m,
		frames:  make([]frame, 1, 16),
		skipped: make([]int64, m.n),
		mark:    make([]int64, m.n),
		ones:    allOnes(m.n),
		scratch: NewMask(m.n),
		deliver: NewMask(m.n),
	}
	t.frames[0] = frame{node: m.root, active: allOnes(m.n)}
	return t
}

// chargeInterval charges every set bit the events since its mark.
func (t *Matcher) chargeInterval(m Mask) {
	for w, word := range m {
		for word != 0 {
			g := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			t.skipped[g] += t.ev - t.mark[g]
		}
	}
}

// Start consumes a StartElement token. deliver holds the groups that
// receive the start tag; skip holds the groups deactivated here, each
// of which must be delivered one SkipSubtree step for the element
// instead. Both masks are valid until the next Matcher call.
func (t *Matcher) Start(name string) (deliver, skip Mask) {
	t.ev++
	if t.depth+1 == len(t.frames) {
		t.frames = append(t.frames, frame{})
	}
	cur := &t.frames[t.depth]
	var child *node
	if cur.node != nil {
		child = cur.node.kids[name]
	}
	t.depth++
	nf := &t.frames[t.depth]
	nf.node = child
	w := t.mach.words
	if cap(nf.active) >= w {
		nf.active = nf.active[:w]
	} else {
		nf.active = make(Mask, w)
	}
	switch {
	case child != nil:
		for i := range nf.active {
			nf.active[i] = cur.active[i] & child.interested[i]
		}
	case cur.node != nil:
		// Untracked name: only all-mode groups continue below.
		for i := range nf.active {
			nf.active[i] = cur.active[i] & cur.node.all[i]
		}
	default:
		// Below the trie entirely: every group still active is in
		// all-subtree mode and stays active.
		copy(nf.active, cur.active)
	}
	sk := t.scratch
	anySkip := false
	for i := range sk {
		sk[i] = cur.active[i] &^ nf.active[i]
		anySkip = anySkip || sk[i] != 0
	}
	if anySkip {
		// The start tag itself is delivered as the SkipSubtree step, not
		// charged; the interval opens on this token and is settled at the
		// matching End.
		for w, word := range sk {
			for word != 0 {
				g := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				t.mark[g] = t.ev
			}
		}
	}
	return nf.active, sk
}

// Text consumes a character-data token, returning the groups that
// receive it. Groups active at a DropText spine position are charged
// one skipped event, matching the router's text withholding.
func (t *Matcher) Text() (deliver Mask) {
	t.ev++
	cur := &t.frames[t.depth]
	if cur.node == nil {
		// Below the trie: every active group is all-mode and gets the text.
		return cur.active
	}
	drop := t.scratch
	anyDrop := false
	for i := range drop {
		drop[i] = cur.active[i] &^ cur.node.text[i]
		anyDrop = anyDrop || drop[i] != 0
	}
	if !anyDrop {
		return cur.active
	}
	for w, word := range drop {
		for word != 0 {
			g := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			t.skipped[g]++
		}
	}
	d := t.deliver
	for i := range d {
		d[i] = cur.active[i] & cur.node.text[i]
	}
	return d
}

// End consumes an EndElement token, returning the groups that receive
// the end tag. Groups that sat out the element settle their skip
// interval here: interior events plus this closing tag, exactly the
// router's per-event accounting.
func (t *Matcher) End() (deliver Mask) {
	t.ev++
	cur := &t.frames[t.depth]
	parent := &t.frames[t.depth-1]
	re := t.scratch
	anyRe := false
	for i := range re {
		re[i] = parent.active[i] &^ cur.active[i]
		anyRe = anyRe || re[i] != 0
	}
	if anyRe {
		t.chargeInterval(re)
	}
	t.depth--
	return cur.active
}

// Skip consumes a SkipElement token (a subtree the scanner pruned and
// consumed raw). Every group is charged exactly one event — active
// groups here, inactive ones through their open interval — and the
// returned mask holds the active groups, each owed one SkipSubtree
// step.
func (t *Matcher) Skip() (deliver Mask) {
	t.ev++
	cur := &t.frames[t.depth]
	for w, word := range cur.active {
		for word != 0 {
			g := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			t.skipped[g]++
		}
	}
	return cur.active
}

// Active reports whether group g receives events at the current stream
// position.
func (t *Matcher) Active(g int) bool { return t.frames[t.depth].active.Has(g) }

// Flush settles the skip intervals of groups currently inactive — for
// collection after a scan that ended (or failed) inside a skipped
// subtree. Idempotent; Skipped totals are only complete after Flush.
func (t *Matcher) Flush() {
	cur := &t.frames[t.depth]
	inactive := t.scratch
	any := false
	for i := range inactive {
		inactive[i] = t.ones[i] &^ cur.active[i]
		any = any || inactive[i] != 0
	}
	if !any {
		return
	}
	t.chargeInterval(inactive)
	for w, word := range inactive {
		for word != 0 {
			g := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			t.mark[g] = t.ev
		}
	}
}

// Skipped returns group g's skipped-event count (complete after Flush).
func (t *Matcher) Skipped(g int) int64 { return t.skipped[g] }

// Extend migrates the matcher to m2, a machine rebuilt with the current
// groups first — in their existing index order, with identical
// signatures — followed by newly appended groups. It is the streaming
// mux's mid-stream join: callable only at a sync point (depth ≤ 1),
// where the only open-element context is the root. rootName is the open
// root element's name, ignored at depth 0. Newly appended groups whose
// signature cannot match the open root start deactivated with their
// skip interval opening now.
func (t *Matcher) Extend(m2 *Machine, rootName string) {
	if t.depth > 1 {
		panic("autom: Extend above a sync point")
	}
	old := t.mach.n
	t.mach = m2
	for g := old; g < m2.n; g++ {
		t.skipped = append(t.skipped, 0)
		t.mark = append(t.mark, 0)
	}
	t.ones = allOnes(m2.n)
	t.scratch = NewMask(m2.n)
	t.deliver = NewMask(m2.n)
	t.frames[0].node = m2.root
	t.frames[0].active = allOnes(m2.n)
	if t.depth == 0 {
		return
	}
	f1 := &t.frames[1]
	child := m2.root.kids[rootName]
	active := NewMask(m2.n)
	copy(active, f1.active) // existing groups keep their activation
	for g := old; g < m2.n; g++ {
		interested := false
		if child != nil {
			interested = child.interested.Has(g)
		} else {
			interested = m2.root.all.Has(g)
		}
		if interested {
			active.set(g)
		} else {
			t.mark[g] = t.ev
		}
	}
	f1.node = child
	f1.active = active
}
