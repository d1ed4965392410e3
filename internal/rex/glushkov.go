package rex

import (
	"fmt"
	"sort"
)

// AmbiguityError reports that a content model is not one-unambiguous
// (deterministic), which XML requires of DTD content models and which the
// paper's machinery depends on (Bruggemann-Klein & Wood).
type AmbiguityError struct {
	Expr   string
	Symbol string
}

// Error implements error.
func (e *AmbiguityError) Error() string {
	return fmt.Sprintf("rex: content model %q is not one-unambiguous at symbol %q", e.Expr, e.Symbol)
}

// Automaton is the Glushkov automaton of a one-unambiguous regular
// expression. State 0 is the initial state q0; states 1..n correspond to
// the marked positions of the expression (Appendix B). Because the
// expression is one-unambiguous, the automaton is deterministic.
type Automaton struct {
	expr Expr

	syms   []string       // distinct symbols, sorted
	symIdx map[string]int // name -> index into syms

	n      int     // number of states (positions + 1)
	posSym []int   // state -> symbol index (state 0 -> -1)
	trans  [][]int // trans[state][symIdx] -> next state, -1 if none
	accept []bool

	// reachSyms[q] is the set of symbol indices reachable from q via at
	// least one transition: the complement of the Past relation. Using
	// >=1-step reachability (Delta+) fixes the empty-word subtlety in the
	// paper's Appendix B definition so that the state-based Past matches
	// the declarative Past of Section 2.
	reachSyms []bitset

	// reachPos[q] is the set of states reachable from q via >=1 steps.
	reachPos []bitset
}

// position marks one occurrence of a symbol in the expression.
type glushkovSets struct {
	nullable bool
	first    []int
	last     []int
}

// Build constructs the Glushkov automaton for e. It returns an
// AmbiguityError if e is not one-unambiguous.
func Build(e Expr) (*Automaton, error) {
	a := &Automaton{expr: e, symIdx: make(map[string]int)}
	a.syms = Symbols(e)
	sort.Strings(a.syms)
	for i, s := range a.syms {
		a.symIdx[s] = i
	}

	// Assign positions in left-to-right order; position p corresponds to
	// automaton state p (1-based). follow[p] collects follow positions.
	var posSyms []int // 1-based positions stored from index 1
	posSyms = append(posSyms, -1)
	follow := [][]int{nil}

	var build func(Expr) glushkovSets
	newPos := func(symIdx int) int {
		posSyms = append(posSyms, symIdx)
		follow = append(follow, nil)
		return len(posSyms) - 1
	}
	addFollow := func(from []int, to []int) {
		for _, p := range from {
			follow[p] = append(follow[p], to...)
		}
	}
	build = func(e Expr) glushkovSets {
		switch e := e.(type) {
		case Epsilon:
			return glushkovSets{nullable: true}
		case Sym:
			p := newPos(a.symIdx[e.Name])
			return glushkovSets{nullable: false, first: []int{p}, last: []int{p}}
		case Seq:
			out := glushkovSets{nullable: true}
			for _, it := range e.Items {
				s := build(it)
				addFollow(out.last, s.first)
				if out.nullable {
					out.first = append(out.first, s.first...)
				}
				if s.nullable {
					out.last = append(out.last, s.last...)
				} else {
					out.last = append([]int(nil), s.last...)
				}
				out.nullable = out.nullable && s.nullable
			}
			return out
		case Alt:
			var out glushkovSets
			for _, it := range e.Items {
				s := build(it)
				out.nullable = out.nullable || s.nullable
				out.first = append(out.first, s.first...)
				out.last = append(out.last, s.last...)
			}
			return out
		case Star:
			s := build(e.X)
			addFollow(s.last, s.first)
			return glushkovSets{nullable: true, first: s.first, last: s.last}
		case Plus:
			s := build(e.X)
			addFollow(s.last, s.first)
			return glushkovSets{nullable: s.nullable, first: s.first, last: s.last}
		case Opt:
			s := build(e.X)
			return glushkovSets{nullable: true, first: s.first, last: s.last}
		default:
			panic(fmt.Sprintf("rex: unknown expression type %T", e))
		}
	}
	root := build(e)

	a.n = len(posSyms)
	a.posSym = posSyms
	a.accept = make([]bool, a.n)
	a.accept[0] = root.nullable
	for _, p := range root.last {
		a.accept[p] = true
	}

	a.trans = make([][]int, a.n)
	for q := 0; q < a.n; q++ {
		row := make([]int, len(a.syms))
		for i := range row {
			row[i] = -1
		}
		a.trans[q] = row
	}
	install := func(q int, targets []int) error {
		for _, p := range targets {
			si := posSyms[p]
			if prev := a.trans[q][si]; prev != -1 && prev != p {
				return &AmbiguityError{Expr: e.String(), Symbol: a.syms[si]}
			}
			a.trans[q][si] = p
		}
		return nil
	}
	if err := install(0, root.first); err != nil {
		return nil, err
	}
	for p := 1; p < a.n; p++ {
		if err := install(p, follow[p]); err != nil {
			return nil, err
		}
	}

	a.computeReach()
	return a, nil
}

// MustBuild is Build for known-good expressions.
func MustBuild(e Expr) *Automaton {
	a, err := Build(e)
	if err != nil {
		panic(err)
	}
	return a
}

// computeReach fills reachPos and reachSyms with >=1-step reachability,
// the transitive closure Δ⁺ of the transition relation. DTD content
// models are tiny, so the O(n^2) propagation is irrelevant in practice.
func (a *Automaton) computeReach() {
	a.reachPos = make([]bitset, a.n)
	a.reachSyms = make([]bitset, a.n)
	for q := 0; q < a.n; q++ {
		a.reachPos[q] = newBitset(a.n)
		a.reachSyms[q] = newBitset(len(a.syms))
	}
	// Successor sets.
	for q := 0; q < a.n; q++ {
		for _, p := range a.trans[q] {
			if p >= 0 {
				a.reachPos[q].set(p)
			}
		}
	}
	// Transitive closure by iteration to fixpoint.
	for changed := true; changed; {
		changed = false
		for q := 0; q < a.n; q++ {
			for p := 0; p < a.n; p++ {
				if !a.reachPos[q].has(p) {
					continue
				}
				if a.reachPos[q].orInto(a.reachPos[p]) {
					changed = true
				}
			}
		}
	}
	for q := 0; q < a.n; q++ {
		for p := 1; p < a.n; p++ {
			if a.reachPos[q].has(p) {
				a.reachSyms[q].set(a.posSym[p])
			}
		}
	}
}

// Expr returns the expression the automaton was built from.
func (a *Automaton) Expr() Expr { return a.expr }

// Symbols returns the automaton's alphabet, sorted.
func (a *Automaton) Symbols() []string { return a.syms }

// HasSymbol reports whether name occurs in the expression.
func (a *Automaton) HasSymbol(name string) bool {
	_, ok := a.symIdx[name]
	return ok
}

// NumStates returns the number of automaton states (positions + 1).
func (a *Automaton) NumStates() int { return a.n }

// Start returns the initial state q0.
func (a *Automaton) Start() int { return 0 }

// Step performs the deterministic transition from state q on symbol name.
// ok is false if the symbol is not allowed at this point (invalid word).
func (a *Automaton) Step(q int, name string) (next int, ok bool) {
	si, here := a.symIdx[name]
	if !here {
		return q, false
	}
	p := a.trans[q][si]
	if p < 0 {
		return q, false
	}
	return p, true
}

// Accepting reports whether q is a final state (the word read so far is a
// complete word of the language).
func (a *Automaton) Accepting(q int) bool { return a.accept[q] }

// Accepts reports whether the automaton accepts the word.
func (a *Automaton) Accepts(word []string) bool {
	q := 0
	for _, s := range word {
		var ok bool
		q, ok = a.Step(q, s)
		if !ok {
			return false
		}
	}
	return a.accept[q]
}

// Past reports Past_ρ(q, name): having reached state q, no element named
// name can occur in any continuation of the word. Symbols outside the
// alphabet are trivially past.
func (a *Automaton) Past(q int, name string) bool {
	si, ok := a.symIdx[name]
	if !ok {
		return true
	}
	return !a.reachSyms[q].has(si)
}
