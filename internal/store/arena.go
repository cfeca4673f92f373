package store

import (
	"math/bits"
	"unsafe"
)

// This file is the store's memory substrate: append-only byte arenas that
// own every retained string, and chunked posting lists that grow without
// copying. Together they make the retained corpus pointer-free — the GC
// sees a handful of large pointer-less arrays per shard instead of
// millions of per-document string headers — and they let the ingest path
// copy each incoming document's bytes exactly once (or zero times, when
// the body and field values are already interned), so the syslog server
// can recycle its pooled messages the moment a batch is indexed.

// span addresses one immutable byte string inside a shard's arena. The
// zero span is the empty string.
type span struct {
	block uint32
	off   uint32
	n     uint32
}

// arenaBlockSize is the capacity of one arena block. Blocks are allocated
// at full capacity and never grown in place, so a string view into a block
// stays valid for the arena's lifetime.
const arenaBlockSize = 64 * 1024

// arenaOversize is the threshold above which a string gets a dedicated
// block instead of being packed into the shared tail block, bounding the
// space a huge value can strand at the end of a partially-filled block.
const arenaOversize = arenaBlockSize / 4

// arena is an append-only byte allocator. Strings are copied in once and
// read back as zero-copy views; nothing is ever freed individually —
// reclamation happens wholesale when Compact rebuilds the shard.
type arena struct {
	blocks   [][]byte
	reserved int64 // total capacity across blocks, for Stats
}

// copy appends s to the arena and returns its span. The returned span's
// bytes never move: blocks are allocated at final capacity, and growing
// the outer blocks slice copies only slice headers.
func (a *arena) copy(s string) span {
	if len(s) == 0 {
		return span{}
	}
	if len(s) >= arenaOversize {
		b := make([]byte, len(s))
		copy(b, s)
		a.blocks = append(a.blocks, b)
		a.reserved += int64(len(s))
		return span{block: uint32(len(a.blocks) - 1), n: uint32(len(s))}
	}
	tail := len(a.blocks) - 1
	if tail < 0 || cap(a.blocks[tail])-len(a.blocks[tail]) < len(s) {
		a.blocks = append(a.blocks, make([]byte, 0, arenaBlockSize))
		a.reserved += arenaBlockSize
		tail = len(a.blocks) - 1
	}
	off := len(a.blocks[tail])
	a.blocks[tail] = append(a.blocks[tail], s...)
	return span{block: uint32(tail), off: uint32(off), n: uint32(len(s))}
}

// copyBytes is copy for a byte-slice source — used where the string to
// retain was assembled in a scratch buffer (field-postings keys), so
// interning it does not first materialize a heap string.
func (a *arena) copyBytes(b []byte) span {
	if len(b) == 0 {
		return span{}
	}
	return a.copy(unsafe.String(&b[0], len(b)))
}

// view returns the string addressed by sp without copying. The bytes are
// immutable (the arena is append-only), so the view is safe to hand out
// and retains the block it points into for as long as the string lives.
func (a *arena) view(sp span) string {
	if sp.n == 0 {
		return ""
	}
	return unsafe.String(&a.blocks[sp.block][sp.off], int(sp.n))
}

// postChunkLen is the number of doc offsets per posting chunk. 16 keeps a
// chunk at 68 bytes — one cache line plus a tail — so a rare term strands
// little space while a popular term's iteration still touches one chunk
// header per 16 candidates. Must stay a power of two (the slot arithmetic
// compiles to a mask).
const postChunkLen = 16

// pchunk is one fixed-size block of a posting list: up to postChunkLen
// doc offsets plus the global index of the next chunk (-1 at the tail).
// It contains no pointers, so the GC never scans posting data.
type pchunk struct {
	next  int32
	elems [postChunkLen]int32
}

// chunkBlockMin is the chunk count of the first chunk block; block b
// holds chunkBlockMin<<b chunks. Capacity doubles like an appending slice
// — so steady-state allocation is amortized away, which the zero-alloc
// index ceilings rely on — but existing chunks never move: growth links a
// fresh block instead of copying a multi-MB array, the failure mode the
// per-term doubling slices this replaces had on popular terms.
const chunkBlockMin = 512

// postings is one term's posting list: doc offsets ascending and
// deduplicated, stored as a linked list of fixed chunks. The steady-state
// append — a term the index has seen before — writes one int32 into the
// tail chunk; only every postChunkLen-th append links a new chunk.
type postings struct {
	head  int32
	tail  int32
	count int32
}

// postBlockMin is the postings count of the first postings block; block b
// holds postBlockMin<<b structs, mirroring the chunk-block geometry.
const postBlockMin = 256

// newPostings hands out the next postings header from the shard's postings
// blocks. Headers used to be individual 12-byte heap objects — one per
// distinct term, tens of thousands per shard, every one of them a GC mark
// target; block allocation makes them amortized-free to create and lets
// Compact recycle the whole population by resetting one cursor.
func (s *shard) newPostings() *postings {
	idx := s.nPost
	b := len(s.postBlocks)
	if int64(idx) == int64(postBlockMin)*((1<<b)-1) {
		s.postBlocks = append(s.postBlocks, make([]postings, postBlockMin<<b))
	}
	s.nPost++
	q := uint32(idx)/postBlockMin + 1
	bb := bits.Len32(q) - 1
	off := uint32(idx) - postBlockMin*((1<<bb)-1)
	p := &s.postBlocks[bb][off]
	*p = postings{head: -1, tail: -1}
	return p
}

// newChunk hands out the next free chunk, growing the block list when the
// current capacity is exhausted.
func (s *shard) newChunk() int32 {
	idx := s.nChunks
	b := len(s.chunkBlocks)
	if int64(idx) == int64(chunkBlockMin)*((1<<b)-1) {
		s.chunkBlocks = append(s.chunkBlocks, make([]pchunk, chunkBlockMin<<b))
	}
	s.nChunks++
	c := s.chunkAt(idx)
	c.next = -1
	return idx
}

// chunkAt resolves a global chunk index to its chunk. With block b sized
// chunkBlockMin<<b, the cumulative capacity below block b is
// chunkBlockMin*(2^b - 1), so the block is one bit-length computation —
// no per-block search, no bounds walk.
func (s *shard) chunkAt(idx int32) *pchunk {
	q := uint32(idx)/chunkBlockMin + 1
	b := bits.Len32(q) - 1
	off := uint32(idx) - chunkBlockMin*((1<<b)-1)
	return &s.chunkBlocks[b][off]
}

// postAppend appends a doc offset to p.
func (s *shard) postAppend(p *postings, off int32) {
	slot := p.count % postChunkLen
	if slot == 0 {
		nc := s.newChunk()
		if p.count == 0 {
			p.head = nc
		} else {
			s.chunkAt(p.tail).next = nc
		}
		p.tail = nc
	}
	s.chunkAt(p.tail).elems[slot] = off
	p.count++
}

// appendPostings materializes p into dst (reused scratch), chunk by chunk.
func (s *shard) appendPostings(dst []int32, p *postings) []int32 {
	if p == nil || p.count == 0 {
		return dst
	}
	remaining := p.count
	ci := p.head
	for remaining > 0 {
		c := s.chunkAt(ci)
		n := remaining
		if n > postChunkLen {
			n = postChunkLen
		}
		dst = append(dst, c.elems[:n]...)
		remaining -= n
		ci = c.next
	}
	return dst
}
