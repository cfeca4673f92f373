package store

import (
	"math/bits"
	"sync"
)

// This file is the store's read path: an evaluator binds one query to one
// shard, under that shard's read lock, and answers it from the pointer-free
// arrays alone — postings for Term and Match, ents for times. No Doc is
// built to decide whether a document matches; Search materializes the hits
// it returns and nothing else.
//
// It rests on posting lists being exact. A body token's list holds exactly
// the documents whose analyzed body contains it (index and query share
// Analyze); a field pair's list holds exactly the documents Term matches
// (see addField). A Term or Match is therefore a conjunction of list
// memberships, and checking one never touches the stored document.
//
// The Query AST is closed (MatchAll, Term, Match, TimeRange, Bool), so the
// evaluator covers every shape: there is no fallback scan that materializes
// documents. Query.matches(*Doc) remains only as the reference the
// differential tests compare against.
//
// An evaluator can be bound from an offset: it then sees only the documents
// stored at or past it, which is how a view (view.go) extends an earlier
// answer by what was appended since.

type nodeKind uint8

const (
	nodeAll nodeKind = iota
	nodeNone
	nodeTime
	nodeLists
	nodeBool
)

// enode is one query node bound to a shard. Children and posting lists
// live in the evaluator's flat slices and are addressed by index range, so
// binding a query allocates nothing once the pooled slices have grown.
type enode struct {
	kind nodeKind
	// driven marks a node the candidate list already satisfies: a
	// single-list node whose list is the candidates, or a Bool whose
	// Should clauses are single lists and whose union is the candidates.
	// check skips what driven covers.
	driven bool

	// nodeTime: From <= t < To on (sec, nsec); absent bounds are open.
	hasFrom, hasTo   bool
	fromNsec, toNsec int32
	fromSec, toSec   int64

	// nodeLists (Term: one list, Match: one per token): the document must
	// be in every list of posts[p0:p1]; curs[p0:p1] walk them.
	p0, p1 int32

	// nodeBool: nodes[c0:c1] must, [c1:c2] should, [c2:c3] must not.
	c0, c1, c2, c3 int32
	// oneField marks a Bool whose Should clauses are all Terms on the field
	// interned as shouldKey: the document satisfies one of them exactly when
	// the list its own pair of that field is indexed under is one of theirs.
	oneField  bool
	shouldKey span
}

// postCursor answers "does this list contain off" for ascending offs by
// walking the list's chunks in step with the candidate walk. A chunk whose
// last entry is below off is skipped without looking inside it. A list that
// lives in its header is copied into the cursor and touches no chunk.
type postCursor struct {
	s     *shard
	chunk *pchunk // nil for an inline list
	i, n  int32   // next slot and used slots in chunk (or inl); n == 0 once exhausted
	rest  int32   // entries in the chunks after this one
	inl   [postInline]int32
}

// postCursor returns a cursor over p for offsets at or past from.
func (s *shard) postCursor(p *postings, from int32) postCursor {
	if p.count <= postInline {
		return postCursor{n: p.count, inl: [postInline]int32{p.head, p.tail}}
	}
	ci, rest := s.skipTo(p, from)
	c := postCursor{s: s, rest: rest}
	c.load(s.chunkAt(ci))
	return c
}

func (c *postCursor) load(ch *pchunk) {
	c.chunk, c.i, c.n = ch, 0, min(c.rest, postChunkLen)
	c.rest -= c.n
}

func (c *postCursor) contains(off int32) bool {
	if c.chunk == nil {
		return (c.n > 0 && c.inl[0] == off) || (c.n > 1 && c.inl[1] == off)
	}
	for c.n > 0 && c.chunk.elems[c.n-1] < off {
		if c.rest == 0 {
			c.n = 0
			return false
		}
		c.load(c.s.chunkAt(c.chunk.next))
	}
	for c.i < c.n && c.chunk.elems[c.i] < off {
		c.i++
	}
	return c.i < c.n && c.chunk.elems[c.i] == off
}

// evaluator is a query bound to a shard plus every reusable buffer the
// walk needs. Pooled: the steady-state Term and Match paths allocate
// nothing.
type evaluator struct {
	s *shard
	// from is the first offset the walk covers.
	from  int32
	nodes []enode
	posts []*postings
	curs  []postCursor // curs[i] walks posts[i]
	toks  []string

	// all is set when the query has no index driver and the walk covers
	// ents; otherwise cands holds the driver's offsets, ascending.
	all   bool
	cands []int32
	lists []*postings
	bits  []uint64
}

var evaluatorPool = sync.Pool{New: func() any { return new(evaluator) }}

// maxScratchCands caps the candidate-list capacity a pooled evaluator may
// retain, and maxScratchBuckets the entries of a view's state a shard
// keeps: a one-off query over a huge posting list or a high-cardinality
// field should not pin its working set forever.
const (
	maxScratchCands   = 1 << 20
	maxScratchBuckets = 1 << 12
)

// bindFrom compiles q against s and stages its candidates at or past
// offset from. The caller holds s's read lock and keeps it until it has
// released the evaluator.
func (s *shard) bindFrom(q Query, from int) *evaluator {
	ev := evaluatorPool.Get().(*evaluator)
	ev.s, ev.from = s, int32(from)
	ev.nodes = append(ev.nodes[:0], enode{})
	ev.compile(q, 0)
	ev.lists = ev.lists[:0]
	ev.all = ev.driver(0, estimate) < 0
	if !ev.all {
		ev.driver(0, collectAndMark)
		ev.stageCands()
	}
	return ev
}

// release returns the evaluator to the pool, dropping every reference
// into the shard so a pooled evaluator never pins a compacted-away block.
func (ev *evaluator) release() {
	ev.s = nil
	clear(ev.posts[:cap(ev.posts)])
	ev.posts = ev.posts[:0]
	clear(ev.curs[:cap(ev.curs)])
	ev.curs = ev.curs[:0]
	clear(ev.lists[:cap(ev.lists)])
	if cap(ev.cands) > maxScratchCands {
		ev.cands, ev.bits = nil, nil
	}
	evaluatorPool.Put(ev)
}

// compile binds q into nodes[at]. The node is built locally and stored
// last: compiling children appends to nodes and may move it.
func (ev *evaluator) compile(q Query, at int32) {
	var n enode
	switch t := q.(type) {
	case nil, MatchAll:
		n.kind = nodeAll
	case TimeRange:
		n.kind = nodeTime
		if !t.From.IsZero() {
			n.hasFrom, n.fromSec, n.fromNsec = true, t.From.Unix(), int32(t.From.Nanosecond())
		}
		if !t.To.IsZero() {
			n.hasTo, n.toSec, n.toNsec = true, t.To.Unix(), int32(t.To.Nanosecond())
		}
	case Term:
		n.kind, n.p0 = nodeLists, int32(len(ev.posts))
		if !ev.addList(ev.s.fieldPostings(t.Field, t.Value)) {
			n.kind = nodeNone
		}
		n.p1 = int32(len(ev.posts))
	case Match:
		// An empty token list matches everything, as Match.matches does.
		ev.toks = AnalyzeInto(t.Text, ev.toks[:0])
		n.kind, n.p0 = nodeAll, int32(len(ev.posts))
		for _, tok := range ev.toks {
			n.kind = nodeLists
			if !ev.addList(ev.s.text[tok]) {
				n.kind = nodeNone
				break
			}
		}
		n.p1 = int32(len(ev.posts))
		clear(ev.toks)
	case Bool:
		ev.compileBool(&n, t)
	default:
		panic(errQueryNode)
	}
	ev.nodes[at] = n
}

// errQueryNode is the panic of a query node outside the AST. The AST is
// sealed by Query's unexported method; only a pointer to one of the five
// node types can be one, which no constructor or parser in this module
// produces. (The message leaves the node out so that queries do not escape
// to the heap at every call site.)
const errQueryNode = "store: query node is not one of MatchAll, Term, Match, TimeRange, Bool"

// addList stages p and a cursor over it; a nil list (no document on this
// shard has the term) reports false.
func (ev *evaluator) addList(p *postings) bool {
	if p == nil {
		return false
	}
	ev.posts = append(ev.posts, p)
	ev.curs = append(ev.curs, ev.s.postCursor(p, ev.from))
	return true
}

func (ev *evaluator) compileBool(n *enode, b Bool) {
	n.kind = nodeBool
	n.c0 = int32(len(ev.nodes))
	n.c1 = n.c0 + int32(len(b.Must))
	n.c2 = n.c1 + int32(len(b.Should))
	n.c3 = n.c2 + int32(len(b.MustNot))
	for i := n.c0; i < n.c3; i++ {
		ev.nodes = append(ev.nodes, enode{})
	}
	for i, c := range b.Must {
		ev.compile(c, n.c0+int32(i))
		if ev.nodes[n.c0+int32(i)].kind == nodeNone {
			n.kind = nodeNone
		}
	}
	anyShould := len(b.Should) == 0
	for i, c := range b.Should {
		ev.compile(c, n.c1+int32(i))
		anyShould = anyShould || ev.nodes[n.c1+int32(i)].kind != nodeNone
	}
	if !anyShould {
		n.kind = nodeNone
	} else if f, ok := shouldField(b.Should); ok {
		// anyShould: some document here carries f, so its key is interned.
		n.shouldKey, n.oneField = ev.s.keySpan(f)
	}
	for i, c := range b.MustNot {
		ev.compile(c, n.c2+int32(i))
	}
}

// shouldField returns the field every Should clause is a Term on, when
// there are at least two clauses and they agree on it.
func shouldField(should []Query) (string, bool) {
	if len(should) < 2 {
		return "", false
	}
	first, ok := should[0].(Term)
	if !ok {
		return "", false
	}
	for _, c := range should[1:] {
		if t, ok := c.(Term); !ok || t.Field != first.Field {
			return "", false
		}
	}
	return first.Field, true
}

// driverMode selects what driver does beyond estimating.
type driverMode uint8

const (
	estimate       driverMode = iota
	collect                   // append the driving lists to ev.lists
	collectAndMark            // ... and mark what they already satisfy as driven
)

// driver returns an upper bound on the number of postings entries whose
// union is a superset of nodes[at]'s matches, or -1 when the node has no
// index driver (MatchAll, TimeRange, a Bool of only those or only
// MustNot).
//
// A list node drives from its rarest list. A Bool drives from its cheapest
// Must clause, or from the union of its Should clauses when every one of
// them is indexable and that is cheaper — which gives the shape a cluster
// coordinator wraps around every query, Bool{Must:[q], Should:[Term
// _part=p …]}, an index driver even when q is MatchAll. Inside a
// union no clause's own list is the candidate list, so nothing below the
// Bool is marked.
func (ev *evaluator) driver(at int32, mode driverMode) int {
	n := &ev.nodes[at]
	switch n.kind {
	case nodeNone:
		return 0
	case nodeLists:
		rarest := ev.posts[n.p0]
		for _, p := range ev.posts[n.p0+1 : n.p1] {
			if p.count < rarest.count {
				rarest = p
			}
		}
		if mode != estimate {
			ev.lists = append(ev.lists, rarest)
			n.driven = mode == collectAndMark && n.p1-n.p0 == 1
		}
		return int(rarest.count)
	case nodeBool:
		best, bestAt := -1, int32(-1)
		for c := n.c0; c < n.c1; c++ {
			if e := ev.driver(c, estimate); e >= 0 && (best < 0 || e < best) {
				best, bestAt = e, c
			}
		}
		union, single := -1, true
		if n.c2 > n.c1 {
			union = 0
			for c := n.c1; c < n.c2; c++ {
				e := ev.driver(c, estimate)
				if e < 0 {
					union = -1
					break
				}
				union += e
				sc := &ev.nodes[c]
				single = single && (sc.kind == nodeNone || (sc.kind == nodeLists && sc.p1-sc.p0 == 1))
			}
		}
		if union >= 0 && (best < 0 || union < best) {
			if mode != estimate {
				for c := n.c1; c < n.c2; c++ {
					ev.driver(c, collect)
				}
				n.driven = mode == collectAndMark && single
			}
			return union
		}
		if mode != estimate && bestAt >= 0 {
			ev.driver(bestAt, mode)
		}
		return best
	}
	return -1
}

// stageCands materializes the union of ev.lists at or past ev.from into
// ev.cands, ascending. One list is copied out chunk by chunk; several are
// unioned through a bitmap over the shard's offsets from ev.from on.
func (ev *evaluator) stageCands() {
	s := ev.s
	ev.cands = ev.cands[:0]
	switch len(ev.lists) {
	case 0:
	case 1:
		ev.cands = s.appendPostings(ev.cands, ev.lists[0], ev.from)
	default:
		base := ev.from &^ 63
		words := (len(s.ents) - int(base) + 63) / 64
		if cap(ev.bits) < words {
			ev.bits = make([]uint64, words)
		}
		bm := ev.bits[:words]
		clear(bm)
		for _, p := range ev.lists {
			// cands doubles as the staging buffer; it is rebuilt below.
			ev.cands = s.appendPostings(ev.cands[:0], p, ev.from)
			for _, off := range ev.cands {
				off -= base
				bm[off>>6] |= 1 << (uint(off) & 63)
			}
		}
		ev.cands = ev.cands[:0]
		for w, word := range bm {
			for word != 0 {
				ev.cands = append(ev.cands, base+int32(w<<6+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
	}
}

// each calls fn for every live document at or past ev.from the query
// matches, in ascending offset order, and returns how many entries it
// visited to find them.
func (ev *evaluator) each(fn func(off int32, e *docEnt)) (visited int) {
	s := ev.s
	hasDead := len(s.dead) > 0
	if ev.all {
		for i := int(ev.from); i < len(s.ents); i++ {
			off := int32(i)
			if hasDead && s.deleted(off) {
				continue
			}
			if e := &s.ents[i]; ev.check(0, off, e) {
				fn(off, e)
			}
		}
		return len(s.ents) - int(ev.from)
	}
	for _, off := range ev.cands {
		if hasDead && s.deleted(off) {
			continue
		}
		if e := &s.ents[off]; ev.check(0, off, e) {
			fn(off, e)
		}
	}
	return len(ev.cands)
}

// check reports whether the document at off (entry e) satisfies
// nodes[at]. Calls arrive in ascending off order — the cursors rely on it
// — and a clause skipped by short-circuiting simply catches up later.
func (ev *evaluator) check(at int32, off int32, e *docEnt) bool {
	n := &ev.nodes[at]
	switch n.kind {
	case nodeAll:
		return true
	case nodeTime:
		if n.hasFrom && (e.sec < n.fromSec || (e.sec == n.fromSec && e.nsec < n.fromNsec)) {
			return false
		}
		if n.hasTo && !(e.sec < n.toSec || (e.sec == n.toSec && e.nsec < n.toNsec)) {
			return false
		}
		return true
	case nodeLists:
		if n.driven {
			return true
		}
		for i := n.p0; i < n.p1; i++ {
			if !ev.curs[i].contains(off) {
				return false
			}
		}
		return true
	case nodeBool:
		for c := n.c0; c < n.c1; c++ {
			if !ev.check(c, off, e) {
				return false
			}
		}
		for c := n.c2; c < n.c3; c++ {
			if ev.check(c, off, e) {
				return false
			}
		}
		if n.driven || n.c1 == n.c2 {
			return true
		}
		if n.oneField {
			// One walk of the stored row instead of one cursor per clause.
			own := ev.s.fieldList(off, n.shouldKey)
			for c := n.c1; c < n.c2; c++ {
				if sc := &ev.nodes[c]; sc.kind == nodeLists && ev.posts[sc.p0] == own {
					return true
				}
			}
			return false
		}
		for c := n.c1; c < n.c2; c++ {
			if ev.check(c, off, e) {
				return true
			}
		}
	}
	return false
}

// keySpan returns the shard's interned span for a field key. Every stored
// pair's key went through internStr and intern is only ever reset by
// Compact (under the write lock), so between compactions a key string has
// exactly one span on a shard and span equality is key equality. The same
// holds for values, which is what lets Terms and Pivot group by value
// span.
func (s *shard) keySpan(field string) (span, bool) {
	if field == "" {
		return span{}, true
	}
	sp, ok := s.intern[field]
	return sp, ok
}

// firstPair returns the index of the first pair keyed by key on the
// document at off — the same "first duplicate wins" rule as Fields.Get.
func (s *shard) firstPair(off int32, key span) (uint32, bool) {
	for _, id := range s.docFields(off) {
		if s.pairs[id].k == key {
			return id, true
		}
	}
	return 0, false
}

// fieldValue returns the value span of the document's pair keyed by key.
func (s *shard) fieldValue(off int32, key span) (span, bool) {
	id, ok := s.firstPair(off, key)
	if !ok {
		return span{}, false
	}
	return s.pairs[id].v, true
}

// fieldList returns the posting list the document's pair keyed by key is
// indexed under, nil when the document does not carry the field. The first
// pair of a key is never shadowed, so the document is in that list and —
// one list per folded value — in no other list of the field.
func (s *shard) fieldList(off int32, key span) *postings {
	id, ok := s.firstPair(off, key)
	if !ok {
		return nil
	}
	return s.pairPost[id]
}
