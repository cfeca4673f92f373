package store

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// Query is the search AST: MatchAll, Term, Match, Bool, TimeRange, and
// nothing else — the unexported method seals the set. The store answers
// queries through the per-shard evaluator (eval.go), which never builds a
// Doc to test one.
type Query interface {
	// matches evaluates the query against one materialized document. It
	// defines each node's semantics and is what the differential tests
	// hold the evaluator to; no store entry point calls it.
	matches(d *Doc) bool
}

// MatchAll matches every document.
type MatchAll struct{}

func (MatchAll) matches(*Doc) bool { return true }

// Term matches documents whose metadata field equals value
// (case-insensitive).
type Term struct {
	Field string
	Value string
}

func (t Term) matches(d *Doc) bool {
	v, ok := d.Fields.Get(t.Field)
	return ok && equalFold(v, t.Value)
}

// Match matches documents whose body contains every token of Text.
type Match struct {
	Text string
}

func (m Match) matches(d *Doc) bool {
	body := Analyze(d.Body)
	for _, w := range Analyze(m.Text) {
		if !slices.Contains(body, w) {
			return false
		}
	}
	return true
}

// TimeRange matches documents with From <= Time < To. Zero bounds are
// open.
type TimeRange struct {
	From time.Time
	To   time.Time
}

func (t TimeRange) matches(d *Doc) bool {
	if !t.From.IsZero() && d.Time.Before(t.From) {
		return false
	}
	if !t.To.IsZero() && !d.Time.Before(t.To) {
		return false
	}
	return true
}

// Bool combines clauses: all Must and none of MustNot, plus at least one
// Should when any are present.
type Bool struct {
	Must    []Query
	Should  []Query
	MustNot []Query
}

func (b Bool) matches(d *Doc) bool {
	for _, q := range b.Must {
		if !q.matches(d) {
			return false
		}
	}
	for _, q := range b.MustNot {
		if q.matches(d) {
			return false
		}
	}
	if len(b.Should) > 0 {
		for _, q := range b.Should {
			if q.matches(d) {
				return true
			}
		}
		return false
	}
	return true
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Hit is one search result.
type Hit struct {
	Doc Doc `json:"doc"`
}

// SearchRequest bundles a query with result controls.
type SearchRequest struct {
	Query Query
	// Size limits returned hits (default 10; negative = unlimited).
	Size int
	// SortAsc returns oldest-first instead of the default newest-first.
	SortAsc bool
}

// topEnt is a search candidate before it is materialized: the sort key
// (sec, nsec, id) straight off the shard's ents, plus the offset to copy
// the document from should it win. id % NumShards names its shard.
type topEnt struct {
	sec  int64
	id   int64
	nsec int32
	off  int32
}

// before reports whether a sorts ahead of b: by time (newest first unless
// asc), equal instants by ascending id.
func (a topEnt) before(b topEnt, asc bool) bool {
	if a.sec != b.sec {
		return (a.sec < b.sec) == asc
	}
	if a.nsec != b.nsec {
		return (a.nsec < b.nsec) == asc
	}
	return a.id < b.id
}

// Search selects each shard's k best matches by sort key alone, in
// parallel, and materializes only the k best of those. All shard read
// locks are held from before the selection until the winners are copied
// out, so the result is one consistent cut across shards and an offset
// stays valid until it is used. They are taken in ascending shard order:
// Search is the only path that holds more than one shard lock, and a
// waiting writer blocks new readers, so two searches acquiring in
// different orders could each hold the lock the other's writer waits on.
func (st *Store) Search(req SearchRequest) []Hit {
	defer st.observeQuery(st.querySearch, st.queryStart())
	size := req.Size
	if size == 0 {
		size = 10
	}

	for _, sh := range st.shards {
		sh.mu.RLock()
	}
	defer func() {
		for _, sh := range st.shards {
			sh.mu.RUnlock()
		}
	}()
	perShard := make([][]topEnt, len(st.shards))
	visited := make([]int, len(st.shards))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, sh := range st.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			perShard[i], visited[i] = sh.topK(req.Query, size, req.SortAsc)
		}(i, sh)
	}
	wg.Wait()

	total, walked := 0, 0
	for i, t := range perShard {
		total += len(t)
		walked += visited[i]
	}
	st.queryCands.Observe(float64(walked))
	best := make([]topEnt, 0, total)
	for _, t := range perShard {
		best = append(best, t...)
	}
	slices.SortFunc(best, func(a, b topEnt) int {
		if a.before(b, req.SortAsc) {
			return -1
		}
		return 1
	})
	if size >= 0 && len(best) > size {
		best = best[:size]
	}
	if len(best) == 0 {
		return nil
	}
	hits := make([]Hit, len(best))
	nsh := int64(len(st.shards))
	for i, t := range best {
		hits[i].Doc = st.shards[t.id%nsh].docCopy(t.off)
	}
	st.materialized.Add(int64(len(hits)))
	return hits
}

// topK returns the shard's k best matches of q in no particular order
// (every match when k < 0) and the number of entries visited. The caller
// holds the read lock. Selection keeps a k-bounded heap with the worst
// kept entry at the root, so a broad query costs one key comparison per
// match and memory for k keys.
func (s *shard) topK(q Query, k int, asc bool) (h []topEnt, visited int) {
	ev := s.bind(q)
	defer ev.release()
	if k >= 0 {
		bound := len(s.ents)
		if !ev.all {
			bound = len(ev.cands)
		}
		h = make([]topEnt, 0, min(k, bound))
	}
	visited = ev.each(func(off int32, e *docEnt) {
		t := topEnt{sec: e.sec, id: e.id, nsec: e.nsec, off: off}
		switch {
		case k < 0 || len(h) < k:
			h = append(h, t)
			if k >= 0 {
				// Sift up: a parent is never better than its children.
				for i := len(h) - 1; i > 0; {
					p := (i - 1) / 2
					if !h[p].before(h[i], asc) {
						break
					}
					h[p], h[i] = h[i], h[p]
					i = p
				}
			}
		case t.before(h[0], asc):
			h[0] = t
			for i := 0; ; {
				worst := i
				for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
					if h[worst].before(h[c], asc) {
						worst = c
					}
				}
				if worst == i {
					break
				}
				h[i], h[worst] = h[worst], h[i]
				i = worst
			}
		}
	})
	return h, visited
}

// CountQuery returns the number of documents matching q.
func (st *Store) CountQuery(q Query) int {
	defer st.observeQuery(st.queryCount, st.queryStart())
	n, walked := 0, 0
	for _, sh := range st.shards {
		c, v := sh.count(q)
		n += c
		walked += v
	}
	st.queryCands.Observe(float64(walked))
	return n
}

// count evaluates q on one shard and returns the matches and the entries
// visited; it allocates nothing.
func (s *shard) count(q Query) (n, visited int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ev := s.bind(q)
	defer ev.release()
	visited = ev.each(func(int32, *docEnt) { n++ })
	return n, visited
}
