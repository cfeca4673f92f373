// Package seen is the memory behind admitting on second sight. A cache in
// front of syslog traffic meets mostly texts that never come back — what
// repeats is the template, not the text — so the store's body memo and
// read views and the classify cache's exact level each keep an entry only
// for a key offered before, and a Set remembers the keys offered once.
package seen

import "math/bits"

// Set is a bounded set of 64-bit hashes: an open-addressed table with
// linear probing whose slots hold the hashes themselves. It grows to a
// fixed number of slots and, when three quarters of those are taken,
// empties and keeps its table, so once grown it never allocates. A hash
// that collides with one already held is reported as seen, so a collision
// can only admit a key early; the caller's cache stays keyed by the exact
// bytes. The zero value holds up to 48 hashes; New sizes a larger one. Not
// safe for concurrent use: the owner's lock guards it.
type Set struct {
	slots []uint64 // 0 marks a free slot
	shift uint     // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
	n     int      // hashes held
	max   int      // slots the table may grow to, a power of two
}

// minSlots is the table a set starts with.
const minSlots = 64

// New returns an empty set whose table grows to at most slots slots,
// rounded up to a power of two, and so holds up to three quarters of that
// many hashes between emptyings. It allocates nothing until first used.
func New(slots int) Set {
	return Set{max: 1 << bits.Len(uint(max(slots, minSlots)-1))}
}

// Again reports whether h was offered since the set last emptied, and
// records it if not.
func (s *Set) Again(h uint64) bool {
	if h == 0 {
		h = 1 // a zero slot is free
	}
	i, ok := s.find(h)
	if ok {
		return true
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		if len(s.slots) < max(s.max, minSlots) {
			s.grow()
		} else {
			s.Reset()
		}
		i, _ = s.find(h)
	}
	s.slots[i] = h
	s.n++
	return false
}

// Reset forgets every hash, keeping the table.
func (s *Set) Reset() {
	clear(s.slots)
	s.n = 0
}

// find returns h's slot, or the free slot its probe ends on.
func (s *Set) find(h uint64) (int, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	mask := len(s.slots) - 1
	for i := int((h * 0x9e3779b97f4a7c15) >> s.shift); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case h:
			return i, true
		case 0:
			return i, false
		}
	}
}

// grow doubles the table (up to max slots) and rehashes what it holds.
func (s *Set) grow() {
	old := s.slots
	n := max(min(2*len(old), s.max), minSlots)
	s.slots = make([]uint64, n)
	s.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, h := range old {
		if h != 0 {
			i, _ := s.find(h)
			s.slots[i] = h
		}
	}
}
