package store

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"time"

	"hetsyslog/internal/obs"
)

// This file is the store's incremental read state. A shard only appends
// between tombstones, and a document's match status and group values are
// fixed at index time: a new document's posting entries sit at its own
// offset, at or past every offset already stored, and the spans its field
// values are interned under stay put until Compact. So a read's answer
// over a shard's first upto documents stays exact while the shard grows,
// and the next identical read need only walk the documents appended since
// and add them in. A view keeps that partial answer between reads.
//
// tombstone and compactLocked are the only changes that are not appends;
// each bumps the shard's gen, and a view built under an older gen starts
// again from offset 0. Nothing else invalidates a view.

// view is one read's partial answer over a shard's first upto documents.
// Which state it uses depends on the read.
type view struct {
	key  string // "" for a private view, which is never stored
	gen  uint64
	upto int
	busy bool // taken by a reader; guarded by the shard's vmu

	n     int           // CountQuery: matches
	hist  map[int64]int // DateHistogramSparse: bucket index -> matches
	tally tally         // Terms, Pivot: span-keyed counters
	top   []topEnt      // bounded Search: the k best, worst kept at the root
}

// A shard keeps a view only for a key it has seen before: the first read
// of a key walks in a pooled private view and leaves the key's hash in the
// shard's keysSeen set, so ad-hoc reads that never repeat cost what they
// did without views and never displace the views of reads that do.
//
// maxViews bounds the views a shard keeps; a shard that would exceed it
// drops them all and rebuilds from the reads that follow. A dashboard
// refresh keeps 19–21 views per shard on one store and 35–37 on each node
// of a three-node cluster, so 64 holds the largest with room to spare.
// maxSeen sizes the seen set's table, which empties when three quarters
// full: a key's second read keeps a view unless the set emptied in
// between, which takes 3/4·maxSeen other keys. A view whose state outgrows
// maxScratchBuckets entries is dropped when its read ends, and a key over
// maxViewKey bytes gets none: those reads cost a full walk, as they would
// without views.
const (
	maxViews   = 64
	maxSeen    = 16 * maxViews
	maxViewKey = 4 << 10
)

// seenSeed hashes read keys and bodies into the shards' seen sets.
var seenSeed = maphash.MakeSeed()

// privateViews pools the views of reads whose view is not kept.
var privateViews = sync.Pool{New: func() any { return new(view) }}

// reset empties the view's state for a walk from offset 0 under gen.
func (v *view) reset(gen uint64) {
	v.gen, v.upto, v.n = gen, 0, 0
	clear(v.hist)
	v.tally.reset()
	v.top = v.top[:0]
}

func (v *view) oversize() bool {
	return len(v.hist) > maxScratchBuckets || len(v.tally.keys) > maxScratchBuckets ||
		len(v.top) > maxScratchBuckets
}

// takeView hands the reader the view stored under key, creating it on the
// key's second read. A view another reader holds is not shared: the second
// reader gets a private one and walks from 0, as does a key's first read.
// The caller holds the read lock until putView.
func (s *shard) takeView(key []byte) *view {
	if len(key) > maxViewKey {
		return s.privateView()
	}
	s.vmu.Lock()
	defer s.vmu.Unlock()
	v, ok := s.views[string(key)]
	switch {
	case !ok:
		if !s.keysSeen.Again(maphash.Bytes(seenSeed, key)) {
			return s.privateView()
		}
		s.reads.misses.Inc()
		if s.views == nil || len(s.views) >= maxViews {
			s.views = make(map[string]*view)
		}
		v = &view{key: string(key), gen: s.gen}
		s.views[v.key] = v
	case v.busy:
		return s.privateView()
	case v.gen != s.gen:
		s.reads.resets.Inc()
		v.reset(s.gen)
	default:
		s.reads.hits.Inc()
	}
	v.busy = true
	return v
}

// privateView returns an empty pooled view that will not be kept.
func (s *shard) privateView() *view {
	s.reads.misses.Inc()
	v := privateViews.Get().(*view)
	v.reset(s.gen)
	return v
}

// viewReads counts how per-shard reads found their views: hits extended a
// kept view, misses walked from offset 0 in a new or private one, resets
// restarted a view a delete or Compact had invalidated.
type viewReads struct{ hits, misses, resets *obs.Counter }

// putView returns a view taken by takeView, dropping it when its state has
// grown past the bound a shard keeps.
func (s *shard) putView(v *view) {
	if v.key == "" {
		if !v.oversize() {
			privateViews.Put(v)
		}
		return
	}
	s.vmu.Lock()
	v.busy = false
	if v.oversize() && s.views[v.key] == v {
		delete(s.views, v.key)
	}
	s.vmu.Unlock()
}

// read answers one read of q through the view stored under key: walk is
// handed an evaluator bound from the view's watermark, adds what it visits
// to the view, reads the answer out of it, and returns the entries it
// visited. The caller holds the read lock.
func (s *shard) read(key []byte, q Query, walk func(ev *evaluator, v *view) int) int {
	v := s.takeView(key)
	ev := s.bindFrom(q, v.upto)
	visited := walk(ev, v)
	ev.release()
	v.upto = len(s.ents)
	s.putView(v)
	return visited
}

// Read operations, the first byte of a view key.
const (
	opCount byte = iota + 1
	opHist
	opTerms
	opPivot
	opSearch
)

// viewKey stages a view key: the operation, its parameters and the query,
// in a canonical binary form where strings are length-prefixed and lists
// counted, so two reads share a key exactly when they share an answer.
// Keys are built in pooled buffers, so a read whose view exists allocates
// nothing for its key. A binary read request (readcodec.go) is written in
// the same form.
type viewKey struct{ b []byte }

var viewKeyPool = sync.Pool{New: func() any { return new(viewKey) }}

func newViewKey(op byte) *viewKey {
	k := viewKeyPool.Get().(*viewKey)
	k.b = append(k.b[:0], op)
	return k
}

func (k *viewKey) release() {
	if cap(k.b) <= maxViewKey {
		viewKeyPool.Put(k)
	}
}

func (k *viewKey) num(n int64) *viewKey {
	k.b = binary.AppendVarint(k.b, n)
	return k
}

func (k *viewKey) flag(b bool) *viewKey {
	if b {
		k.b = append(k.b, 1)
	} else {
		k.b = append(k.b, 0)
	}
	return k
}

func (k *viewKey) str(s string) *viewKey {
	k.b = binary.AppendUvarint(k.b, uint64(len(s)))
	k.b = append(k.b, s...)
	return k
}

func (k *viewKey) stamp(t time.Time) *viewKey {
	if t.IsZero() {
		return k.flag(false)
	}
	return k.flag(true).num(t.Unix()).num(int64(t.Nanosecond()))
}

func (k *viewKey) query(q Query) *viewKey {
	switch t := q.(type) {
	case nil, MatchAll:
		k.b = append(k.b, 'A')
	case Term:
		k.b = append(k.b, 'T')
		k.str(t.Field).str(t.Value)
	case Match:
		k.b = append(k.b, 'M')
		k.str(t.Text)
	case TimeRange:
		k.b = append(k.b, 'R')
		k.stamp(t.From).stamp(t.To)
	case Bool:
		k.b = append(k.b, 'B')
		for _, clauses := range [...][]Query{t.Must, t.Should, t.MustNot} {
			k.num(int64(len(clauses)))
			for _, c := range clauses {
				k.query(c)
			}
		}
	default:
		panic(errQueryNode)
	}
	return k
}
