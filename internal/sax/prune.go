package sax

import "bytes"

// PruneNode is one position in a scanner prune trie — the scan-level
// counterpart of a query's projected-path signature. During a batched
// scan with Options.Prune set, the scanner descends the trie alongside
// the element stack; a start tag with no entry at the current position
// (under a node without All) collapses into a single SkipElement token
// and the element's bytes are consumed raw, without tokenizing its
// interior: no name interning, no text decoding, no per-event delivery.
//
// A prune trie is read-only once handed to a scan; concurrent scans may
// share one.
type PruneNode struct {
	// All marks that everything below this position is consumed: the
	// scanner stops consulting Kids underneath.
	All bool
	// Kids maps a child element name to its trie node. Names absent from
	// the map (under a node with All unset) are pruned subtrees.
	Kids map[string]*PruneNode
}

// emitSkip appends a SkipElement token for a pruned element.
func (s *scanner) emitSkip(name string) error {
	b := s.curBatch()
	if len(b.Tokens) >= maxBatchTokens {
		if err := s.flushBatch(); err != nil {
			return err
		}
		b = s.curBatch()
	}
	b.Tokens = append(b.Tokens, Token{Kind: SkipElement, Name: name})
	return nil
}

// skipElement consumes a pruned element raw — the remainder of its start
// tag (the name is already read), its entire content, and its end tag —
// emitting a single SkipElement token in its place. Nesting is tracked
// by tag counting; names inside the pruned subtree are neither interned
// nor matched, so a mis-paired end tag there goes undetected. That is
// the same well-formedness trade the skip's consumer (engine
// SkipSubtree) already makes for validation: the caller asserted nothing
// inside the element can matter.
func (s *scanner) skipElement(name string) error {
	if err := s.emitSkip(name); err != nil {
		return err
	}
	selfClose, err := s.rawTag()
	if err != nil {
		return s.errf("unexpected EOF in skipped <%s ...>", name)
	}
	if selfClose {
		return nil
	}
	depth := 1
	for depth > 0 {
		// Character data inside a pruned subtree is skipped at memchr
		// speed, a block at a time.
		i := bytes.IndexByte(s.in[s.pos:s.lim], '<')
		if i < 0 {
			s.pos = s.lim
			if err := s.refill(); err != nil {
				return s.errf("unexpected EOF in skipped element <%s>", name)
			}
			continue
		}
		s.pos += i + 1
		b, err := s.readByte()
		if err != nil {
			return s.errf("unexpected EOF in skipped element <%s>", name)
		}
		switch b {
		case '/':
			if err := s.rawToGt(); err != nil {
				return s.errf("unexpected EOF in skipped element <%s>", name)
			}
			depth--
		case '?':
			if err := s.skipPI(); err != nil {
				return err
			}
		case '!':
			if err := s.rawBang(); err != nil {
				return err
			}
		default:
			s.unreadByte()
			selfClose, err := s.rawTag()
			if err != nil {
				return s.errf("unexpected EOF in skipped element <%s>", name)
			}
			if !selfClose {
				depth++
			}
		}
	}
	return nil
}

// rawTag consumes the remainder of a tag up to its closing '>', honoring
// quoted attribute values (a '>' inside quotes does not end the tag),
// and reports whether the tag was self-closing.
func (s *scanner) rawTag() (bool, error) {
	var quote byte
	prev := byte(0)
	for {
		for s.pos < s.lim {
			b := s.in[s.pos]
			s.pos++
			if quote != 0 {
				if b == quote {
					quote = 0
				}
				continue
			}
			switch b {
			case '"', '\'':
				quote = b
			case '>':
				return prev == '/', nil
			}
			prev = b
		}
		if err := s.refill(); err != nil {
			return false, err
		}
	}
}

// rawToGt consumes input up to and including the next '>' (end tags
// cannot contain quoted values).
func (s *scanner) rawToGt() error {
	for {
		if i := bytes.IndexByte(s.in[s.pos:s.lim], '>'); i >= 0 {
			s.pos += i + 1
			return nil
		}
		s.pos = s.lim
		if err := s.refill(); err != nil {
			return err
		}
	}
}

// rawBang handles "<!" constructs inside a pruned subtree: comments and
// DOCTYPE are skipped as usual; CDATA content is discarded instead of
// accumulated.
func (s *scanner) rawBang() error {
	b, err := s.readByte()
	if err != nil {
		return s.errf("unexpected EOF after '<!'")
	}
	switch b {
	case '-':
		b2, err := s.readByte()
		if err != nil || b2 != '-' {
			return s.errf("malformed comment")
		}
		return s.skipComment()
	case '[':
		const open = "CDATA["
		for i := 0; i < len(open); i++ {
			b, err := s.readByte()
			if err != nil || b != open[i] {
				return s.errf("malformed CDATA section")
			}
		}
		brackets := 0
		for {
			b, err := s.readByte()
			if err != nil {
				return s.errf("unexpected EOF in CDATA section")
			}
			switch {
			case b == ']':
				if brackets < 2 {
					brackets++
				}
			case b == '>' && brackets >= 2:
				return nil
			default:
				brackets = 0
			}
		}
	default:
		s.unreadByte()
		return s.skipDoctype()
	}
}
