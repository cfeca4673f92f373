package store

import "unsafe"

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

// postInline is the longest list that lives in its header. Most of a syslog
// vocabulary is variable words — pids, ports, job ids — that occur in one
// document and never again, so most lists never own a chunk.
const postInline = 2

// postings is one term's posting list: doc offsets ascending and
// deduplicated. A list of at most postInline documents is its header: head
// holds the first offset and tail the second. The third document moves
// both into the list's first chunk, and from then on head and tail are the
// global indexes of the first and last chunk of a linked list of chunks.
// The steady-state append — a term the index has seen often — writes one
// int32 into the tail chunk; only every postChunkLen-th append links a new
// chunk.
type postings struct {
	head  int32
	tail  int32
	count int32
}

// Chunks and postings headers are carved from fixed-size blocks, so element
// idx is blocks[idx>>shift][idx&mask]: elements never move (growth appends
// a block, it does not copy one), the GC sees one pointer-free object per
// block, and what a shard has reserved but not used is at most one block of
// each kind however large the shard grows. Both block sizes are whole
// allocator size classes — 2048 chunks are 17 pages, 2048 headers are the
// 24 KiB class — so nothing is lost to rounding either.
const (
	chunkBlockShift = 11
	chunkBlockLen   = 1 << chunkBlockShift
	postBlockShift  = 11
	postBlockLen    = 1 << postBlockShift

	chunkBlockBytes = chunkBlockLen * int64(unsafe.Sizeof(pchunk{}))
	postBlockBytes  = postBlockLen * int64(unsafe.Sizeof(postings{}))
)

// newPostings hands out the next (empty) postings header. Headers are block
// allocated rather than 12-byte heap objects of their own — one per
// distinct term, tens of thousands per shard, every one of them a GC mark
// target — which makes them amortized-free to create and lets Compact
// recycle the whole population by resetting one cursor.
func (s *shard) newPostings() *postings {
	idx := s.nPost
	if int(idx>>postBlockShift) == len(s.postBlocks) {
		s.postBlocks = append(s.postBlocks, make([]postings, postBlockLen))
	}
	s.nPost++
	s.nInline++
	p := &s.postBlocks[idx>>postBlockShift][idx&(postBlockLen-1)]
	*p = postings{}
	return p
}

// newChunk hands out the next free chunk, adding a block when the last one
// is full.
func (s *shard) newChunk() (int32, *pchunk) {
	idx := s.nChunks
	if int(idx>>chunkBlockShift) == len(s.chunkBlocks) {
		s.chunkBlocks = append(s.chunkBlocks, make([]pchunk, chunkBlockLen))
	}
	s.nChunks++
	c := s.chunkAt(idx)
	c.next = -1
	return idx, c
}

// chunkAt resolves a global chunk index to its chunk.
func (s *shard) chunkAt(idx int32) *pchunk {
	return &s.chunkBlocks[idx>>chunkBlockShift][idx&(chunkBlockLen-1)]
}

// postAppend appends a doc offset to p.
func (s *shard) postAppend(p *postings, off int32) {
	switch {
	case p.count == 0:
		p.head = off
	case p.count == 1:
		p.tail = off
	case p.count == postInline:
		nc, c := s.newChunk()
		c.elems[0], c.elems[1], c.elems[2] = p.head, p.tail, off
		p.head, p.tail = nc, nc
		s.nInline--
	default:
		slot := p.count % postChunkLen
		c := s.chunkAt(p.tail)
		if slot == 0 {
			nc, fresh := s.newChunk()
			c.next, p.tail = nc, nc
			c = fresh
		}
		c.elems[slot] = off
	}
	p.count++
}

// appendPostings materializes p's offsets at or past from into dst (reused
// scratch): the header's own offsets for an inline list, chunk by chunk
// otherwise, skipping the chunks that end below from.
func (s *shard) appendPostings(dst []int32, p *postings, from int32) []int32 {
	if p == nil {
		return dst
	}
	if p.count <= postInline {
		if p.count > 0 && p.head >= from {
			dst = append(dst, p.head)
		}
		if p.count > 1 && p.tail >= from {
			dst = append(dst, p.tail)
		}
		return dst
	}
	ci, remaining := s.skipTo(p, from)
	for remaining > 0 {
		c := s.chunkAt(ci)
		n := min(remaining, postChunkLen)
		if els := c.elems[:n]; els[n-1] >= from {
			i := 0
			for els[i] < from {
				i++
			}
			dst = append(dst, els[i:]...)
		}
		remaining -= n
		ci = c.next
	}
	return dst
}

// skipTo returns where a walk of a chunked list for offsets at or past from
// starts: the chunk and the entries from it to the end. When the last chunk
// starts below from, everything the walk wants is in it — the common case
// for a view extended by a few appended documents — and the walk skips the
// whole chain ahead of it; otherwise it starts at the head.
func (s *shard) skipTo(p *postings, from int32) (ci, entries int32) {
	if s.chunkAt(p.tail).elems[0] < from {
		return p.tail, (p.count-1)%postChunkLen + 1
	}
	return p.head, p.count
}
