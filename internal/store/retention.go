package store

import "time"

// The paper's deployment ingests >30M records/month (§4.2); bounded disk
// means bounded retention. Deletion uses tombstones: deleted documents
// stay in the postings until Compact rebuilds the shard, but are filtered
// from every read path.

// DeleteBefore tombstones all documents older than cutoff and returns how
// many were marked.
func (st *Store) DeleteBefore(cutoff time.Time) int {
	cutSec, cutNsec := cutoff.Unix(), int32(cutoff.Nanosecond())
	n := 0
	for _, sh := range st.shards {
		sh.mu.Lock()
		for i := range sh.ents {
			if !sh.deleted(int32(i)) && sh.entBefore(int32(i), cutSec, cutNsec) {
				sh.tombstone(int32(i))
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Delete tombstones one document by id; it reports whether the document
// existed and was live.
func (st *Store) Delete(id int64) bool {
	if id < 0 || len(st.shards) == 0 {
		return false
	}
	sh := st.shards[id%int64(len(st.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	off, ok := sh.offByID(id)
	if !ok || sh.deleted(int32(off)) {
		return false
	}
	sh.tombstone(int32(off))
	return true
}

// Deleted returns the number of tombstoned documents awaiting compaction.
func (st *Store) Deleted() int {
	n := 0
	for _, sh := range st.shards {
		sh.mu.RLock()
		n += len(sh.dead)
		sh.mu.RUnlock()
	}
	return n
}

// Compact rebuilds every shard without its tombstoned documents,
// reclaiming postings, arena and interning memory (this is also the only
// point where arena bytes orphaned by bodyMemo resets are released). The
// memos and the bodies seen once start afresh from the live documents.
// Document ids are preserved.
//
// The rebuild recycles everything it does not read: the map buckets and
// term-table slots (cleared, not reallocated) and the chunk and postings
// blocks (rewritten in place — the rebuild walks ents and the arena, never
// the old posting lists). Only byte arenas are always replaced, because
// handed-out query results hold string views into the old blocks and those
// must stay immutable. Under a steady retention cycle — delete the expired window,
// compact, keep ingesting — a shard therefore reaches a fixed set of
// allocations and reuses it forever.
func (st *Store) Compact() {
	for _, sh := range st.shards {
		sh.mu.Lock()
		sh.compactLocked()
		sh.mu.Unlock()
	}
}

// compactLocked rebuilds one shard without its tombstoned documents; the
// caller holds the write lock.
func (sh *shard) compactLocked() {
	if len(sh.dead) == 0 {
		return
	}
	sh.gen++
	live := len(sh.ents) - len(sh.dead)
	if live == 0 {
		// Everything expired at once — the common shape when retention
		// fires on a quiet shard. Reset in place: no rebuild loop, no
		// fresh maps, no new blocks.
		sh.ents = sh.ents[:0]
		sh.fEnds = sh.fEnds[:0]
		sh.fieldIDs = sh.fieldIDs[:0]
		sh.pairs = sh.pairs[:0]
		sh.pairPost = sh.pairPost[:0]
		sh.arena = arena{}
		sh.text.reset()
		sh.field.reset()
		clear(sh.bodyMemo)
		sh.bodiesSeen.Reset()
		clear(sh.intern)
		clear(sh.fieldMemo)
		sh.nChunks = 0
		sh.nPost = 0
		sh.nInline = 0
		sh.dead = nil
		return
	}
	// Re-index each live doc into a fresh shard through a scratch Doc:
	// indexLocked copies every retained byte into the fresh arena, so the
	// scratch's views into the old arena are read-only inputs. The fresh
	// shard adopts the old shard's maps and term tables (cleared) and block
	// storage — the rebuild never reads the old postings, only ents and the
	// arena.
	sh.text.reset()
	sh.field.reset()
	clear(sh.bodyMemo)
	sh.bodiesSeen.Reset()
	clear(sh.intern)
	clear(sh.fieldMemo)
	fresh := &shard{
		ents:        make([]docEnt, 0, live),
		text:        sh.text,
		field:       sh.field,
		bodyMemo:    sh.bodyMemo,
		bodiesSeen:  sh.bodiesSeen,
		intern:      sh.intern,
		fieldMemo:   sh.fieldMemo,
		chunkBlocks: sh.chunkBlocks,
		postBlocks:  sh.postBlocks,
		tokScratch:  sh.tokScratch,
		listScratch: sh.listScratch,
		keyScratch:  sh.keyScratch,
		lowScratch:  sh.lowScratch,
	}
	var d Doc
	d.Fields = make(Fields, 0, 16)
	for i := range sh.ents {
		if sh.deleted(int32(i)) {
			continue
		}
		sh.fillDoc(int32(i), &d)
		fresh.indexLocked(d)
	}
	sh.ents = fresh.ents
	sh.fEnds = fresh.fEnds
	sh.fieldIDs = fresh.fieldIDs
	sh.pairs = fresh.pairs
	sh.pairPost = fresh.pairPost
	sh.arena = fresh.arena
	sh.text = fresh.text
	sh.field = fresh.field
	sh.chunkBlocks = fresh.chunkBlocks
	sh.nChunks = fresh.nChunks
	sh.postBlocks = fresh.postBlocks
	sh.nPost = fresh.nPost
	sh.nInline = fresh.nInline
	sh.bodiesSeen = fresh.bodiesSeen
	sh.tokScratch = fresh.tokScratch
	sh.listScratch = fresh.listScratch
	sh.keyScratch = fresh.keyScratch
	sh.lowScratch = fresh.lowScratch
	sh.dead = nil
}
