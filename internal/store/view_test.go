package store

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"hetsyslog/internal/obs"
	"hetsyslog/internal/raceflag"
)

// viewSet returns every view the store's shards keep.
func viewSet(st *Store) map[*view]bool {
	out := map[*view]bool{}
	for _, sh := range st.shards {
		sh.vmu.Lock()
		for _, v := range sh.views {
			out[v] = true
		}
		sh.vmu.Unlock()
	}
	return out
}

// viewSearchSizes are TestViewsDifferential's Search sizes. They are fixed,
// not derived from the match count, so each round's searches extend the
// views the round before left; as a trial's corpus grows each size is in
// turn above, near and below the count.
var viewSearchSizes = []int{0, -1, 1, 3, 8, 100}

// TestViewsDifferential is the exactness oracle for views. Each trial keeps
// one store and, over many rounds, appends a batch — one document up to
// past parallelBatchMin × shards, so the parallel stripe path runs too —
// and re-runs the same reads through checkReads against the naive
// reference, so every read extends the views the round before left: no
// view may be dropped between rounds. Some rounds also delete by id,
// expire by time, compact, or expire everything and compact (the in-place
// reset), and the views those invalidate must restart. A trial checks two
// of diffQueries' shapes (one shape's reads keep about twenty views per
// shard, and a shard keeps maxViews); the trials cover them all.
func TestViewsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	queries := diffQueries(rng)
	rounds := 24
	if testing.Short() {
		rounds = 8
	}
	for trial := 0; 2*trial < len(queries); trial++ {
		nsh := 1 + rng.Intn(4)
		st := New(nsh)
		qs := []Query{queries[2*trial], queries[(2*trial+1)%len(queries)]}
		var docs []Doc
		var kept map[*view]bool
		for round := 0; round < rounds; round++ {
			n := 1 + rng.Intn(12)
			if rng.Intn(4) == 0 {
				n = parallelBatchMin*nsh + rng.Intn(40)
			}
			batch := make([]Doc, n)
			for i := range batch {
				batch[i] = diffDoc(rng)
			}
			st.IndexBatch(batch)
			docs = append(docs, batch...)
			change := "append"
			switch rng.Intn(8) {
			case 0:
				change = "delete"
				live := docs[:0:0]
				for _, d := range docs {
					if rng.Intn(5) == 0 {
						if !st.Delete(d.ID) {
							t.Fatalf("trial %d round %d: Delete(%d) found no live doc", trial, round, d.ID)
						}
						continue
					}
					live = append(live, d)
				}
				docs = live
			case 1:
				change = "expire"
				cutoff := time.Unix(1700000000+rng.Int63n(1<<17), 0)
				st.DeleteBefore(cutoff)
				live := docs[:0:0]
				for _, d := range docs {
					if !d.Time.Before(cutoff) {
						live = append(live, d)
					}
				}
				docs = live
			case 2:
				change = "compact"
				st.Compact()
			case 3:
				change = "expire everything"
				st.DeleteBefore(time.Unix(1<<40, 0))
				st.Compact()
				docs = nil
			}
			for qi, q := range qs {
				checkReads(t, fmt.Sprintf("trial %d round %d (%s, %d shards) query %d %#v", trial, round, change, nsh, qi, q), st, docs, q, viewSearchSizes)
			}
			now := viewSet(st)
			for v := range kept {
				if !now[v] {
					t.Fatalf("trial %d round %d (%s): a view was dropped and rebuilt instead of extended", trial, round, change)
				}
			}
			kept = now
		}
	}
}

// TestViewsSharedKeyConcurrent hands one view key to two readers at once
// beside an IndexBatch writer. A reader that finds the view taken walks a
// private one from offset 0 and leaves the taken view alone — first forced
// by hand, then under -race with the readers and the writer racing. Every
// answer must be exact for some per-shard prefix: counts never fall, every
// reported slot was indexed and matches, and once the writer stops the
// whole differential suite holds.
func TestViewsSharedKeyConcurrent(t *testing.T) {
	const (
		nsh       = 4
		batches   = 30
		batchSize = parallelBatchMin*nsh + 8
	)
	st := New(nsh)
	base := time.Unix(1800000000, 0)
	var slot int
	newBatch := func() []Doc {
		docs := make([]Doc, batchSize)
		for i := range docs {
			slot++
			docs[i] = Doc{
				Time:   base.Add(time.Duration(slot) * time.Second),
				Fields: F("slot", strconv.Itoa(slot), "app", diffVocab.apps[slot%len(diffVocab.apps)]),
				Body:   diffVocab.bodies[slot%len(diffVocab.bodies)],
			}
		}
		return docs
	}
	var docs []Doc
	for i := 0; i < 2; i++ {
		b := newBatch()
		st.IndexBatch(b)
		docs = append(docs, b...)
	}
	q := Match{Text: "temperature"}

	// Forced: a view another reader holds is not touched by a second read.
	// A key's first read only marks it seen; its second keeps the view.
	sh := st.shards[0]
	key := newViewKey(opCount).query(q)
	sh.putView(sh.takeView(key.b))
	held := sh.takeView(key.b)
	key.release()
	if held.key == "" {
		t.Fatal("a key's second read kept no view")
	}
	if got, want := st.CountQuery(q), len(refMatch(docs, q)); got != want {
		t.Fatalf("CountQuery beside a held view = %d, reference %d", got, want)
	}
	if held.upto != 0 || held.n != 0 {
		t.Fatalf("a read extended a view another reader holds: upto %d, n %d", held.upto, held.n)
	}
	sh.putView(held)

	// Raced: two readers on the same keys beside the writer.
	indexed := make(chan []Doc, batches)
	go func() {
		defer close(indexed)
		for b := 0; b < batches; b++ {
			batch := newBatch()
			st.IndexBatch(batch)
			indexed <- batch
		}
	}()
	stop := make(chan struct{})
	var reading sync.WaitGroup
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := st.CountQuery(q)
				if n < prev {
					t.Errorf("CountQuery fell from %d to %d with nothing deleted", prev, n)
				}
				prev = n
				for _, b := range st.Terms(q, "slot", 0) {
					s, err := strconv.Atoi(b.Value)
					if err != nil || b.Count != 1 || !q.matches(&Doc{Body: diffVocab.bodies[s%len(diffVocab.bodies)]}) {
						t.Errorf("Terms(slot) reported %q %d times", b.Value, b.Count)
					}
				}
				hits := st.Search(SearchRequest{Query: q, Size: 5})
				for i := 1; i < len(hits); i++ {
					if !hits[i].Doc.Time.Before(hits[i-1].Doc.Time) {
						t.Errorf("Search hits %d and %d out of order", i-1, i)
					}
				}
			}
		}()
	}
	for batch := range indexed {
		docs = append(docs, batch...)
	}
	close(stop)
	reading.Wait()
	checkReads(t, "quiescent", st, docs, q, nil)
}

// TestViewReadCost pins what a read costs once its views exist: repeating
// a refresh on an unchanged store walks no entry at all, and after m
// documents are appended each read walks at most m — the documents
// appended, or fewer when the index rules some out.
func TestViewReadCost(t *testing.T) {
	const m = 128
	st := dashboardStore(20_000)
	st.Instrument(obs.NewRegistry())
	reads := dashboardReads(st)
	for range 2 { // the first refresh marks its keys seen, the second keeps views
		for _, r := range reads {
			r.run()
		}
	}
	walked := st.queryCands.Sum()
	for _, r := range reads {
		r.run()
	}
	if moved := st.queryCands.Sum() - walked; moved != 0 {
		t.Errorf("repeating the refresh on an unchanged store walked %v entries, want 0", moved)
	}
	batch := make([]Doc, m)
	for i := range batch {
		batch[i] = dashboardDoc(20_000 + i)
	}
	st.IndexBatch(batch)
	for _, r := range reads {
		before := st.queryCands.Sum()
		r.run()
		if d := st.queryCands.Sum() - before; d > m {
			t.Errorf("%s walked %v entries after %d were appended", r.name, d, m)
		}
	}
	// Every read keeps one view per shard, and every per-shard read of the
	// last two refreshes extended it; a delete on shard 0 restarts exactly
	// the views of shard 0, once each, at their next read.
	perRefresh := int64(len(reads) * len(st.shards))
	if s := st.Stats(); s.Views != perRefresh || s.ViewMisses != 2*perRefresh || s.ViewHits != 2*perRefresh || s.ViewResets != 0 {
		t.Errorf("Stats after four refreshes of %d reads on %d shards: %d views kept, %d hits, %d misses, %d resets",
			len(reads), len(st.shards), s.Views, s.ViewHits, s.ViewMisses, s.ViewResets)
	}
	st.Delete(0)
	for _, r := range reads {
		r.run()
	}
	if s := st.Stats(); s.ViewResets != int64(len(reads)) {
		t.Errorf("Stats: %d view resets after a delete on one shard, want %d", s.ViewResets, len(reads))
	}
}

// TestOneOffReadsKeepNoView holds reads that do not repeat to what they
// cost without views: each walks in a private view, keeps nothing, and —
// however many there are — leaves the views of a repeated refresh in place.
func TestOneOffReadsKeepNoView(t *testing.T) {
	st := dashboardStore(20_000)
	st.Instrument(obs.NewRegistry())
	reads := dashboardReads(st)
	for range 2 {
		for _, r := range reads {
			r.run()
		}
	}
	kept := viewSet(st)
	for i := 0; i < 4*maxViews; i++ {
		host := Term{Field: "hostname", Value: fmt.Sprintf("cn%03d", i%512)}
		st.CountQuery(host)
		st.Terms(host, "app", 0)
		st.Search(SearchRequest{Query: host, Size: 3})
	}
	if now := viewSet(st); !maps.Equal(now, kept) {
		t.Errorf("one-off reads changed the kept views: %d before, %d after", len(kept), len(now))
	}
	walked := st.queryCands.Sum()
	for _, r := range reads {
		r.run()
	}
	if moved := st.queryCands.Sum() - walked; moved != 0 {
		t.Errorf("the refresh after the one-off reads walked %v entries, want 0", moved)
	}
}

// TestViewBytesCeiling pins the memory the views of a dashboard refresh
// hold: the live heap a store gains from refreshing it twice, which keeps
// one view per read per shard, measured after two collections so pooled
// scratch does not count. Views hold what a read groups by — hosts, racks,
// buckets, k hits — not documents, so the figure is per shard. Measured
// 72.3 kB per shard; the ceiling leaves 10 %.
func TestViewBytesCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap figures are not representative under -race")
	}
	const ceiling = 80_000 // bytes per shard
	st := dashboardStore(60_000)
	reads := dashboardReads(st)
	before := liveHeap()
	for range 2 {
		for _, r := range reads {
			r.run()
		}
	}
	perShard := float64(liveHeap()-before) / float64(len(st.shards))
	runtime.KeepAlive(st)
	t.Logf("views of one refresh (%d reads): %.0f B per shard, %d views", len(reads), perShard, st.Stats().Views)
	if perShard > ceiling {
		t.Errorf("views of one refresh hold %.0f B per shard, want <= %d", perShard, ceiling)
	}
}

// liveHeap returns the heap in use after two collections: the second
// empties the pools the first only demoted.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
