package store

import (
	"hash/maphash"
	"unsafe"
)

// termTable is a shard's term dictionary — one for body tokens, one for
// field keys — mapping a term to its posting list. It is open-addressed
// with linear probing over a power-of-two array of postings indexes + 1
// (0 marks an empty slot), so it holds no pointers and no keys: a term's
// bytes live in the arena and its header's key addresses them. Most of a
// syslog vocabulary is variable words that occur once; a Go map entry for
// each would cost more than its posting list and give the GC a pointer to
// mark, where here a term costs its 20-byte header and 5–11 bytes of slots.
type termTable struct {
	slots []uint32
	used  int
}

// termSeed hashes the terms of every shard's tables.
var termSeed = maphash.MakeSeed()

// lookup returns term's posting list in t, nil when the shard holds no
// document with it. It allocates nothing.
func (s *shard) lookup(t *termTable, term string) *postings {
	if t.used == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := maphash.String(termSeed, term) & mask; ; i = (i + 1) & mask {
		v := t.slots[i]
		if v == 0 {
			return nil
		}
		if p := s.postAt(v - 1); s.arena.keyIs(p.key, term) {
			return p
		}
	}
}

// termList returns term's posting list in t, adding an empty one when the
// term is new (fresh); the caller then sets the new list's key before the
// table is probed again. The table doubles before a probe would leave it
// more than 3/4 full.
func (s *shard) termList(t *termTable, term string) (p *postings, fresh bool) {
	if 4*(t.used+1) > 3*len(t.slots) {
		s.growTerms(t)
	}
	mask := uint64(len(t.slots) - 1)
	for i := maphash.String(termSeed, term) & mask; ; i = (i + 1) & mask {
		v := t.slots[i]
		if v == 0 {
			p = s.newPostings()
			t.slots[i] = uint32(s.nPost) // the new header's index + 1
			t.used++
			return p, true
		}
		if p := s.postAt(v - 1); s.arena.keyIs(p.key, term) {
			return p, false
		}
	}
}

// growTerms doubles t (minimum 64 slots) and reinserts every term.
func (s *shard) growTerms(t *termTable) {
	old := t.slots
	t.slots = make([]uint32, max(64, 2*len(old)))
	mask := uint64(len(t.slots) - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := maphash.String(termSeed, s.arena.keyView(s.postAt(v-1).key)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = v
	}
}

// reset empties t, keeping its slots for the terms to come.
func (t *termTable) reset() {
	clear(t.slots)
	t.used = 0
}

// bytes is what t's slots reserve.
func (t *termTable) bytes() int64 {
	return int64(len(t.slots)) * int64(unsafe.Sizeof(uint32(0)))
}

// textKey returns the key of tok, a token of the body interned at bsp
// (view is its arena view). A token already lowercase is a substring of
// the view (AnalyzeInto), so its key addresses the body's own bytes; a
// folded token is a fresh string and is copied in once.
func (s *shard) textKey(tok string, bsp span, view string) termKey {
	d := uintptr(unsafe.Pointer(unsafe.StringData(tok))) - uintptr(unsafe.Pointer(unsafe.StringData(view)))
	if d < uintptr(len(view)) {
		return s.arena.keyFor(span{block: bsp.block, off: bsp.off + uint32(d), n: uint32(len(tok))})
	}
	return s.arena.newKey(tok)
}
