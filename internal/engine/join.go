package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"flux/internal/xq"
)

// Value joins. A for-loop over buffered items whose every output is
// guarded by one comparison between a path on the loop variable (the
// inner key) and an operand that does not depend on the loop (the
// probe: a constant, or a path on a variable bound outside it) is a
// join loop. Its first run against a source node within one event
// builds an index over the inner items' keys; each later run probes it
// and visits only the candidate items, in document order. The index
// only narrows the loop to a superset of the items the guard accepts —
// evalCond still decides every candidate — so existential sequence
// comparison, the numeric-vs-string rules of compareVals, document
// order and once-only emission hold exactly as in the nested loop.
//
// Memory contract: an index at its peak holds one pointer per inner
// item plus one parsed key per inner value, over nodes the scope buffer
// already holds. It is not charged to PeakBufferBytes or the static
// prediction. It is valid only for the event that built it, and its
// contents are released when any scope buffer is freed.

// joinStrategy is how a join loop visits its inner items.
type joinStrategy int

const (
	joinNested joinStrategy = iota // every item; described, never indexed
	joinHash                       // '=': hash of the inner keys
	joinSorted                     // '<' '<=' '>' '>=': sorted inner keys
)

func (s joinStrategy) String() string {
	switch s {
	case joinHash:
		return "hash"
	case joinSorted:
		return "sorted"
	default:
		return "nested loop"
	}
}

// joinSpec is the key of a join loop: its guard atom oriented as
// inner op probe.
type joinSpec struct {
	strategy joinStrategy
	atom     *atomSpec // the guard as written, for Describe
	op       xq.RelOp
	inner    *navOperand // path on the loop variable
	probe    *navOperand // constant or path on a variable bound outside the loop
}

// detectJoin returns the join key of `for loopVar ... return body`: the
// first guard atom of an indexable shape that is an and-conjunct of a
// guard over every output of the body. Failing that, a guard atom
// comparing the loop variable with an outer path is returned as a
// joinNested spec (so Describe can name the loop), and otherwise nil.
func detectJoin(loopVar string, body *execProg) *joinSpec {
	var keys []*joinSpec
	walkGuards(body, nil, func(c *condSpec, bound []string) {
		forAtoms(c, func(a *atomSpec) {
			if k := orientJoinAtom(a, loopVar, bound); k != nil {
				keys = append(keys, k)
			}
		})
	})
	for _, k := range keys {
		if k.strategy != joinNested && guarded(body, k, loopVar, nil) {
			return k
		}
	}
	for _, k := range keys {
		if !k.probe.isConst {
			k.strategy = joinNested
			return k
		}
	}
	return nil
}

// walkGuards calls visit for every eIf condition under p, with the loop
// variables bound between the join loop and the condition.
func walkGuards(p *execProg, bound []string, visit func(c *condSpec, bound []string)) {
	switch p.kind {
	case eSeq:
		for _, it := range p.items {
			walkGuards(it, bound, visit)
		}
	case eFor:
		walkGuards(p.body, append(bound[:len(bound):len(bound)], p.loopVar), visit)
	case eIf:
		visit(p.cond, bound)
		walkGuards(p.then, bound, visit)
	}
}

// conjunctKeys appends the oriented join atoms among c's and-conjuncts.
func conjunctKeys(c *condSpec, loopVar string, bound []string, out []*joinSpec) []*joinSpec {
	switch c.kind {
	case cAnd:
		out = conjunctKeys(c.l, loopVar, bound, out)
		return conjunctKeys(c.r, loopVar, bound, out)
	case cAtom:
		if k := orientJoinAtom(c.atom, loopVar, bound); k != nil {
			out = append(out, k)
		}
	}
	return out
}

func forAtoms(c *condSpec, f func(*atomSpec)) {
	switch c.kind {
	case cAnd, cOr:
		forAtoms(c.l, f)
		forAtoms(c.r, f)
	case cNot:
		forAtoms(c.x, f)
	case cAtom:
		f(c.atom)
	}
}

// guarded reports whether every output p can emit sits under an eIf
// whose condition has an and-conjunct equal to key.
func guarded(p *execProg, key *joinSpec, loopVar string, bound []string) bool {
	switch p.kind {
	case eSeq:
		for _, it := range p.items {
			if !guarded(it, key, loopVar, bound) {
				return false
			}
		}
		return true
	case eFor:
		return guarded(p.body, key, loopVar, append(bound[:len(bound):len(bound)], p.loopVar))
	case eIf:
		for _, k := range conjunctKeys(p.cond, loopVar, bound, nil) {
			if k.sameKey(key) {
				return true
			}
		}
		return guarded(p.then, key, loopVar, bound)
	default:
		return false
	}
}

// orientJoinAtom returns the atom as inner op probe when one side is a
// path on loopVar and the other does not depend on the loop, else nil.
func orientJoinAtom(a *atomSpec, loopVar string, bound []string) *joinSpec {
	if a.lhs == nil || slices.Contains(bound, loopVar) {
		return nil
	}
	onLoop := func(o *navOperand) bool { return !o.isConst && o.varName == loopVar }
	free := func(o *navOperand) bool {
		return o.isConst || (o.varName != loopVar && !slices.Contains(bound, o.varName))
	}
	k := &joinSpec{atom: a}
	switch {
	case onLoop(a.lhs) && free(a.rhs):
		k.op, k.inner, k.probe = a.op, a.lhs, a.rhs
	case onLoop(a.rhs) && free(a.lhs):
		k.op, k.inner, k.probe = flipOp(a.op), a.rhs, a.lhs
	default:
		return nil
	}
	switch k.op {
	case xq.OpEq:
		k.strategy = joinHash
	case xq.OpLt, xq.OpLe, xq.OpGt, xq.OpGe:
		k.strategy = joinSorted
	}
	return k
}

// flipOp mirrors an operator across its operands: l op r ⟺ r flipOp(op) l.
func flipOp(op xq.RelOp) xq.RelOp {
	switch op {
	case xq.OpLt:
		return xq.OpGt
	case xq.OpLe:
		return xq.OpGe
	case xq.OpGt:
		return xq.OpLt
	case xq.OpGe:
		return xq.OpLe
	default:
		return op
	}
}

func (k *joinSpec) sameKey(o *joinSpec) bool {
	return k.op == o.op && k.inner.same(o.inner) && k.probe.same(o.probe)
}

func (o *navOperand) same(p *navOperand) bool {
	if o.isConst || p.isConst {
		return o.isConst && p.isConst && o.constVal == p.constVal
	}
	return o.varName == p.varName && o.scale == p.scale && slices.Equal(o.path, p.path)
}

// describe renders the join as written plus its strategy.
func (k *joinSpec) describe() string {
	return fmt.Sprintf("join %s %s %s: %s", k.atom.lhs.describe(), k.atom.op, k.atom.rhs.describe(), k.strategy)
}

func (o *navOperand) describe() string {
	if o.isConst {
		return fmt.Sprintf("%q", o.constVal)
	}
	p := o.varName + "/" + strings.Join(o.path, "/")
	if o.scale != 0 {
		return fmt.Sprintf("(%v * %s)", o.scale, p)
	}
	return p
}

// --- Runtime ------------------------------------------------------------

// joinIndex is one join loop's index over the items of one source node.
type joinIndex struct {
	loop *execProg
	src  *bufNode
	gen  int64 // engine.tokens at build: buffers only change between events

	items []*bufNode // the source's items in document order

	// joinHash: item positions per key, in document order. Numbers are
	// keyed by value (7 and 7.0 collide), other values by string; a
	// number never equals a non-number under compareVals.
	nums map[float64][]int32
	strs map[string][]int32

	// joinSorted: the numeric inner keys, ascending. full is set when an
	// inner key is not a number: string order then decides, so every
	// probe takes the full loop.
	keys []sortedKey
	full bool

	cands []int32 // the current probe's candidate positions
}

type sortedKey struct {
	k    float64
	item int32
}

// joinIndexFor returns the loop's index over src for the current event,
// building it on first use.
func (e *engine) joinIndexFor(p *execProg, src *bufNode) *joinIndex {
	var ix *joinIndex
	for _, x := range e.joins {
		if x.loop == p {
			ix = x
			break
		}
	}
	if ix == nil {
		ix = &joinIndex{loop: p, nums: map[float64][]int32{}, strs: map[string][]int32{}}
		e.joins = append(e.joins, ix)
	}
	if ix.src != src || ix.gen != e.tokens {
		e.buildJoinIndex(ix, src)
	}
	return ix
}

func (e *engine) buildJoinIndex(ix *joinIndex, src *bufNode) {
	ix.reset()
	ix.src, ix.gen = src, e.tokens
	spec := ix.loop.join
	for _, kid := range src.Kids {
		if kid.Name != ix.loop.step {
			continue
		}
		item := int32(len(ix.items))
		ix.items = append(ix.items, kid)
		nodes := kid.Select(spec.inner.path, e.selScratch[:0])
		for _, n := range nodes {
			v, ok := makeCmpVal(n.StringValue(), spec.inner.scale)
			switch {
			case !ok, v.isNum && math.IsNaN(v.num):
				// Contributes nothing to the comparison.
			case spec.strategy == joinSorted && !v.isNum:
				ix.full = true
			case spec.strategy == joinSorted:
				ix.keys = append(ix.keys, sortedKey{v.num, item})
			case v.isNum:
				addKey(ix.nums, v.num, item)
			default:
				addKey(ix.strs, v.str, item)
			}
		}
		e.selScratch = nodes[:0]
	}
	slices.SortFunc(ix.keys, func(a, b sortedKey) int { return cmp.Compare(a.k, b.k) })
}

// addKey files item under k once, however many of its values equal k.
func addKey[K comparable](m map[K][]int32, k K, item int32) {
	l := m[k]
	if n := len(l); n == 0 || l[n-1] != item {
		m[k] = append(l, item)
	}
}

// reset drops the index's contents.
func (ix *joinIndex) reset() {
	ix.src = nil
	clear(ix.items)
	ix.items = ix.items[:0]
	clear(ix.nums)
	clear(ix.strs)
	ix.keys = ix.keys[:0]
	ix.full = false
}

// dropJoins releases every index: a scope buffer is being freed, and an
// index must not pin the nodes it points into.
func (e *engine) dropJoins() {
	for _, ix := range e.joins {
		ix.reset()
	}
}

// candidates returns, in document order, the item positions the probe
// values can select, or all == true when the probe needs the full loop.
func (ix *joinIndex) candidates(probe []cmpVal) (cands []int32, all bool) {
	spec := ix.loop.join
	ix.cands = ix.cands[:0]
	if spec.strategy == joinHash {
		var hit []int32
		hits := 0
		for i := range probe {
			if v := &probe[i]; v.isNum {
				hit = ix.nums[v.num] // NaN finds nothing
			} else {
				hit = ix.strs[v.str]
			}
			if len(hit) > 0 {
				hits++
				ix.cands = append(ix.cands, hit...)
			}
		}
		if hits == 1 {
			return ix.cands, false
		}
	} else {
		if ix.full {
			return nil, true
		}
		// An existential threshold over several probe values is one
		// threshold: k < some r ⟺ k < max(r), k > some r ⟺ k > min(r).
		below := spec.op == xq.OpLt || spec.op == xq.OpLe
		t, have := 0.0, false
		for i := range probe {
			v := &probe[i]
			if !v.isNum {
				return nil, true
			}
			if math.IsNaN(v.num) {
				continue
			}
			if !have || (below && v.num > t) || (!below && v.num < t) {
				t, have = v.num, true
			}
		}
		if !have {
			return nil, false
		}
		// The first key past the threshold; a key equal to t lies past
		// it for < and >=, before it for <= and >.
		past := spec.op == xq.OpLt || spec.op == xq.OpGe
		cut := sort.Search(len(ix.keys), func(i int) bool {
			return ix.keys[i].k > t || (past && ix.keys[i].k == t)
		})
		sel := ix.keys[cut:]
		if below {
			sel = ix.keys[:cut]
		}
		for _, k := range sel {
			ix.cands = append(ix.cands, k.item)
		}
	}
	slices.Sort(ix.cands)
	return slices.Compact(ix.cands), false
}

// runJoin runs a join loop over src through its index.
func (e *engine) runJoin(p *execProg, src *bufNode, env *execEnv) error {
	ix := e.joinIndexFor(p, src)
	var err error
	e.rhsVals, err = e.operandValues(p.join.probe, env, e.rhsVals[:0])
	if err != nil {
		return err
	}
	cands, all := ix.candidates(e.rhsVals)
	if all {
		return e.runLoop(p, src, env)
	}
	for _, i := range cands {
		if err := e.runIteration(p, ix.items[i], env); err != nil {
			return err
		}
	}
	return nil
}
