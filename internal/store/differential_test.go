package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The differential suite holds every store read — CountQuery, Search,
// Terms, DateHistogramSparse, Pivot — to a naive reference: a linear scan
// of plain Docs through Query.matches, with none of the store's machinery
// (no arenas, no postings, no evaluator). Whatever the index-driven path
// answers must equal it exactly, order included.

// refMatch returns the indexes of the docs q matches.
func refMatch(docs []Doc, q Query) []int {
	var idx []int
	for i := range docs {
		if q.matches(&docs[i]) {
			idx = append(idx, i)
		}
	}
	return idx
}

// refSearch orders the matches the way Search documents: by time (newest
// first unless asc), equal instants by ascending id; size 0 means 10,
// negative unlimited.
func refSearch(docs []Doc, ref []int, size int, asc bool) []Doc {
	out := make([]Doc, len(ref))
	for i, di := range ref {
		out[i] = docs[di]
	}
	sort.Slice(out, func(a, b int) bool {
		ta, tb := out[a].Time, out[b].Time
		if !ta.Equal(tb) {
			if asc {
				return ta.Before(tb)
			}
			return tb.Before(ta)
		}
		return out[a].ID < out[b].ID
	})
	if size == 0 {
		size = 10
	}
	if size >= 0 && len(out) > size {
		out = out[:size]
	}
	return out
}

func refSparseHistogram(docs []Doc, ref []int, interval time.Duration) []HistogramBucket {
	counts := map[int64]int{}
	for _, di := range ref {
		counts[bucketIndex(docs[di].Time, interval)]++
	}
	if len(counts) == 0 {
		return nil
	}
	out := make([]HistogramBucket, 0, len(counts))
	for b, c := range counts {
		out = append(out, HistogramBucket{Start: time.Unix(0, b*int64(interval)).UTC(), Count: c})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start.Before(out[b].Start) })
	return out
}

func refTerms(docs []Doc, ref []int, field string, size int) []TermBucket {
	counts := map[string]int{}
	for _, di := range ref {
		if v, ok := docs[di].Fields.Get(field); ok {
			counts[v]++
		}
	}
	return termBuckets(counts, size)
}

func refPivot(docs []Doc, ref []int, by string, sub []string) []PivotBucket {
	groups := map[string][]int{}
	for _, di := range ref {
		if v, ok := docs[di].Fields.Get(by); ok {
			groups[v] = append(groups[v], di)
		}
	}
	out := make([]PivotBucket, 0, len(groups))
	for v, members := range groups {
		b := PivotBucket{Value: v, Count: len(members), Sub: make([][]TermBucket, len(sub))}
		for i, f := range sub {
			b.Sub[i] = refTerms(docs, members, f, 0)
		}
		out = append(out, b)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Value < out[b].Value
	})
	return out
}

// sameDoc compares a returned document with the one that was indexed:
// same id, same instant (the store rebuilds times from (sec, nsec), which
// must round-trip the zero time and pre-epoch stamps), same body, same
// field list in the same order, duplicates and empties included.
func sameDoc(got, want *Doc) bool {
	if got.ID != want.ID || !got.Time.Equal(want.Time) || got.Body != want.Body ||
		len(got.Fields) != len(want.Fields) {
		return false
	}
	for i := range got.Fields {
		if got.Fields[i] != want.Fields[i] {
			return false
		}
	}
	return true
}

// diffVocab is the randomized corpus' vocabulary: mixed-case and
// non-ASCII values (including 'K', the Kelvin sign, whose Unicode
// lower-casing is the ASCII 'k' that Term's ASCII fold must not equate),
// empty values, and a key holding the byte a naive "key\x00value" posting
// key would split on.
var diffVocab = struct {
	hosts, apps, racks, parts, bodies []string
}{
	hosts: []string{"cn001", "CN001", "cn002", "gpu01", "GPU01", "mgmt", "nœud7", "NŒUD7", "K", "k", "K", ""},
	apps:  []string{"kernel", "Kernel", "slurmd", "sshd", ""},
	racks: []string{"r0", "r1", "R1", "r2", "ラック"},
	parts: []string{"0", "1", "2", "3", "4", "5"},
	bodies: []string{
		"CPU temperature above threshold clock throttled",
		"cpu Temperature NORMAL again",
		"link down on port eth0",
		"Accepted publickey for root",
		"EDAC MC0 CE memory read error",
		"température élevée sur nœud7 ÉLEVÉE",
		"",
	},
}

func pick(rng *rand.Rand, from []string) string { return from[rng.Intn(len(from))] }

// diffDoc draws one document. Keys go missing, repeat (with the same or
// another value: Get and Term see only the first), and timestamps include
// the zero time, pre-1970 instants and deliberate collisions.
func diffDoc(rng *rand.Rand) Doc {
	var ts time.Time
	switch rng.Intn(8) {
	case 0:
		// zero time: a record whose timestamp failed to parse
	case 1:
		ts = time.Unix(-1-rng.Int63n(1<<20), int64(rng.Intn(1e9)))
	case 2, 3:
		ts = time.Unix(1700000000+rng.Int63n(4), 0) // equal timestamps
	default:
		ts = time.Unix(1700000000+rng.Int63n(1<<17), int64(rng.Intn(1e9)))
	}
	var fs Fields
	add := func(k string, from []string) {
		if rng.Intn(6) == 0 {
			return // missing key
		}
		fs = append(fs, Field{K: k, V: pick(rng, from)})
		if rng.Intn(6) == 0 {
			fs = append(fs, Field{K: k, V: pick(rng, from)}) // shadowed duplicate
		}
	}
	add("hostname", diffVocab.hosts)
	add("app", diffVocab.apps)
	add("rack", diffVocab.racks)
	add("_part", diffVocab.parts)
	add("a\x00b", diffVocab.apps)
	if rng.Intn(8) == 0 {
		fs = append(fs, Field{K: "a", V: "b\x00" + pick(rng, diffVocab.apps)})
	}
	rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	return Doc{Time: ts, Fields: fs, Body: pick(rng, diffVocab.bodies) + " " + strconv.Itoa(rng.Intn(6))}
}

// diffQueries draws the query shapes the suite checks: every node type,
// folded and non-ASCII terms, the partition-restricted shape a cluster
// coordinator sends (with MatchAll and with a real query inside), MustNot,
// nested Bools and unions whose clauses are not all single lists.
func diffQueries(rng *rand.Rand) []Query {
	from := time.Unix(1700000000+rng.Int63n(1<<17), 0)
	parts := func() []Query {
		var out []Query
		for _, p := range diffVocab.parts {
			if rng.Intn(2) == 0 {
				out = append(out, Term{Field: "_part", Value: p})
			}
		}
		return append(out, Term{Field: "_part", Value: "99"}) // absent on every shard
	}
	host := Term{Field: "hostname", Value: pick(rng, diffVocab.hosts)}
	return []Query{
		MatchAll{},
		host,
		Term{Field: "hostname", Value: "CN001"},
		Term{Field: "HOSTNAME", Value: "cn001"}, // keys are exact
		Term{Field: "hostname", Value: "k"},     // must not match the Kelvin sign
		Term{Field: "hostname", Value: "nœud7"}, // non-ASCII bytes are not folded
		Term{Field: "hostname", Value: ""},
		Term{Field: "missing", Value: "x"},
		Term{Field: "a\x00b", Value: "sshd"},
		Term{Field: "a", Value: "b\x00sshd"},
		Match{Text: "temperature"},
		Match{Text: "Temperature THRESHOLD"},
		Match{Text: "élevée"},
		Match{Text: "temperature " + strconv.Itoa(rng.Intn(6))},
		Match{Text: "tokens matching nothing whatsoever"},
		Match{Text: " ,; "}, // analyzes to no tokens: matches everything
		TimeRange{From: from},
		TimeRange{To: from},
		TimeRange{From: time.Unix(-1<<21, 0), To: from},
		TimeRange{From: time.Unix(1700000001, 0), To: time.Unix(1700000003, 0)},
		Bool{Must: []Query{MatchAll{}}, Should: parts()},
		Bool{Must: []Query{host}, Should: parts()},
		Bool{Must: []Query{Bool{Must: []Query{Match{Text: "temperature"}, TimeRange{From: from}}}}, Should: parts()},
		Bool{
			Must:    []Query{Match{Text: "temperature"}, Term{Field: "app", Value: pick(rng, diffVocab.apps)}},
			MustNot: []Query{Term{Field: "hostname", Value: diffVocab.hosts[0]}},
		},
		Bool{MustNot: []Query{Match{Text: "temperature"}, Term{Field: "rack", Value: "r1"}}},
		Bool{Should: []Query{Match{Text: "throttled"}, Term{Field: "app", Value: "sshd"}}},
		Bool{Should: []Query{Match{Text: "cpu temperature"}, Bool{Must: []Query{host}, MustNot: []Query{Term{Field: "rack", Value: "r0"}}}}},
		Bool{Should: []Query{Term{Field: "rack", Value: "r2"}, TimeRange{To: from}}},
		Bool{Must: []Query{Term{Field: "missing", Value: "x"}}, Should: parts()},
		// One-field Shoulds beside a rarer Must are answered from the stored
		// row: folded and non-ASCII values, the empty value, an absent one.
		Bool{Must: []Query{Match{Text: "temperature"}}, Should: []Query{
			Term{Field: "hostname", Value: "CN001"}, Term{Field: "hostname", Value: "Gpu01"},
			Term{Field: "hostname", Value: "k"}, Term{Field: "hostname", Value: "nœud7"},
			Term{Field: "hostname", Value: ""}, Term{Field: "hostname", Value: "nowhere"}}},
		Bool{Must: []Query{host}, MustNot: []Query{Bool{Should: []Query{
			Term{Field: "rack", Value: "R1"}, Term{Field: "rack", Value: "ラック"}}}}},
		// Shoulds on two fields keep one cursor per clause.
		Bool{Must: []Query{host}, Should: []Query{Term{Field: "rack", Value: "r1"}, Term{Field: "app", Value: "SSHD"}}},
		Bool{Should: []Query{Term{Field: "missing", Value: "x"}}},
	}
}

// checkReads compares every read of q against the reference over docs,
// which must carry the ids the store assigned. Search runs at each of
// sizes; nil means sizes derived from the match count: none, unbounded,
// small, exactly the count and above it.
func checkReads(t *testing.T, label string, st *Store, docs []Doc, q Query, sizes []int) {
	t.Helper()
	ref := refMatch(docs, q)
	if got := st.CountQuery(q); got != len(ref) {
		t.Fatalf("%s: CountQuery = %d, reference %d", label, got, len(ref))
	}
	if sizes == nil {
		sizes = []int{0, -1, 1, 3, len(ref), len(ref) + 5}
	}
	for _, size := range sizes {
		for _, asc := range []bool{false, true} {
			want := refSearch(docs, ref, size, asc)
			hits := st.Search(SearchRequest{Query: q, Size: size, SortAsc: asc})
			if len(hits) != len(want) {
				t.Fatalf("%s: Search(size=%d asc=%v) returned %d hits, reference %d", label, size, asc, len(hits), len(want))
			}
			for i := range hits {
				if !sameDoc(&hits[i].Doc, &want[i]) {
					t.Fatalf("%s: Search(size=%d asc=%v) hit %d = %+v, reference %+v", label, size, asc, i, hits[i].Doc, want[i])
				}
			}
		}
	}
	for _, interval := range []time.Duration{time.Hour, time.Second, 7*time.Minute + 13*time.Second} {
		if got, want := st.DateHistogramSparse(q, interval), refSparseHistogram(docs, ref, interval); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: histogram(%v) = %v, reference %v", label, interval, got, want)
		}
	}
	for _, field := range []string{"hostname", "rack", "a\x00b", "missing", ""} {
		for _, size := range []int{0, 2} {
			if got, want := st.Terms(q, field, size), refTerms(docs, ref, field, size); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Terms(%q, %d) = %v, reference %v", label, field, size, got, want)
			}
		}
	}
	for _, pv := range [][]string{{"rack", "app", "hostname"}, {"hostname"}, {"app", "app", "missing"}, {"missing", "app"}} {
		if got, want := st.Pivot(q, pv[0], pv[1:]...), refPivot(docs, ref, pv[0], pv[1:]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Pivot(%q) = %v, reference %v", label, pv, got, want)
		}
	}
}

// TestReadPathDifferential runs the suite on quiescent stores: randomized
// corpora and shard counts, then tombstones (reads must skip them), then
// Compact (the arena, intern table and postings are rebuilt; ids keep).
func TestReadPathDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		docs := make([]Doc, 1+rng.Intn(220))
		for i := range docs {
			docs[i] = diffDoc(rng)
		}
		st := New(1 + rng.Intn(6))
		// Mixed entry points: ids come back through docs[i].ID either way.
		cut := rng.Intn(len(docs) + 1)
		st.IndexBatch(docs[:cut])
		for i := cut; i < len(docs); i++ {
			docs[i].ID = st.Index(docs[i])
		}
		for i := range docs {
			if got, ok := st.Get(docs[i].ID); !ok || !sameDoc(&got, &docs[i]) {
				t.Fatalf("trial %d: Get(%d) = %+v, %v; indexed %+v", trial, docs[i].ID, got, ok, docs[i])
			}
		}
		stages := []struct {
			name  string
			apply func()
		}{
			{"fresh", func() {}},
			{"tombstoned", func() {
				cutoff := time.Unix(1700000000+rng.Int63n(1<<17), 0)
				st.DeleteBefore(cutoff)
				kept := docs[:0:0]
				for _, d := range docs {
					if d.Time.Before(cutoff) {
						continue
					}
					if rng.Intn(5) == 0 {
						if !st.Delete(d.ID) {
							t.Fatalf("trial %d: Delete(%d) found no live doc", trial, d.ID)
						}
						continue
					}
					kept = append(kept, d)
				}
				docs = kept
			}},
			{"compacted", st.Compact},
		}
		for _, stage := range stages {
			stage.apply()
			for qi, q := range diffQueries(rng) {
				checkReads(t, fmt.Sprintf("trial %d %s query %d %#v", trial, stage.name, qi, q), st, docs, q, nil)
			}
		}
	}
}

// TestOneFieldShouldDifferential pins the row-membership check a Bool gets
// when its Should clauses are Terms on one field and something else drives
// (the shape a cluster coordinator wraps around every query): which plan
// each shape compiles to, and that the reads agree with the reference over
// a shard where the restricting pairs were re-memoized after a fieldMemo
// reset — so documents name them by two pair indexes, one list — and where
// documents shadow the field, spell it in another case, or lack it.
func TestOneFieldShouldDifferential(t *testing.T) {
	st := New(1)
	var docs []Doc
	add := func(fields Fields, body string) {
		d := Doc{Time: time.Unix(1700000000+int64(len(docs)), 0), Fields: fields, Body: body}
		d.ID = st.Index(d)
		docs = append(docs, d)
	}
	parts := []string{"p0", "p1", "P2", "p3"}
	for i := 0; i < 48; i++ {
		add(F("_part", parts[i%4], "hostname", "cn"+strconv.Itoa(i%6)), "alpha beta")
	}
	for i := 0; i <= maxBodyMemo; i++ { // more distinct pairs than fieldMemo holds
		add(F("seq", strconv.Itoa(i)), "filler")
	}
	for i := 0; i < 48; i++ {
		switch i % 8 {
		case 0: // shadowed: Term sees the first pair only
			add(Fields{{"_part", parts[i%4]}, {"_part", parts[(i+1)%4]}, {"hostname", "cn" + strconv.Itoa(i%6)}}, "alpha")
		case 1: // no partition at all
			add(F("hostname", "cn"+strconv.Itoa(i%6)), "alpha beta")
		default:
			add(F("hostname", "cn"+strconv.Itoa(i%6), "_part", strings.ToUpper(parts[i%4])), "beta")
		}
	}
	sh := st.shards[0]
	var p0 []uint32
	for id, fp := range sh.pairs {
		if sh.arena.view(fp.k) == "_part" && sh.arena.view(fp.v) == "p0" {
			p0 = append(p0, uint32(id))
		}
	}
	if len(p0) != 2 || sh.pairPost[p0[0]] != sh.pairPost[p0[1]] || sh.pairPost[p0[0]] != sh.fieldPostings("_part", "P0") {
		t.Fatalf("_part=p0 has pair indexes %v; want two, both naming the one list Term binds to", p0)
	}

	in := func(vals ...string) []Query {
		var out []Query
		for _, v := range vals {
			out = append(out, Term{Field: "_part", Value: v})
		}
		return out
	}
	host := Term{Field: "hostname", Value: "cn1"}
	for _, tc := range []struct {
		name             string
		q                Query
		oneField, driven bool
	}{
		{"restricted", Bool{Must: []Query{host}, Should: in("p0", "p2", "P3")}, true, false},
		{"value never stored", Bool{Must: []Query{host}, Should: in("p1", "p9")}, true, false},
		{"every clause absent", Bool{Must: []Query{host}, Should: in("p8", "p9")}, false, false},
		{"beside a must-not", Bool{Must: []Query{host}, MustNot: []Query{Match{Text: "beta"}}, Should: in("p0", "p1")}, true, false},
		{"union drives", Bool{Must: []Query{MatchAll{}}, Should: in("p0", "p2")}, true, true},
		{"one clause", Bool{Must: []Query{host}, Should: in("p0")}, false, false},
		{"two fields", Bool{Must: []Query{host}, Should: []Query{Term{Field: "_part", Value: "p0"}, Term{Field: "seq", Value: "7"}}}, false, false},
		{"not all terms", Bool{Must: []Query{host}, Should: append(in("p0", "p1"), Match{Text: "filler"})}, false, false},
	} {
		ev := sh.bindFrom(tc.q, 0)
		root := ev.nodes[0]
		ev.release()
		if root.oneField != tc.oneField || root.driven != tc.driven {
			t.Errorf("%s: compiled with oneField=%v driven=%v, want %v and %v", tc.name, root.oneField, root.driven, tc.oneField, tc.driven)
		}
		checkReads(t, tc.name, st, docs, tc.q, nil)
	}
	st.Delete(docs[0].ID)
	st.Compact() // the rebuild refills pairPost; fieldMemo resets again on the way
	for _, q := range []Query{
		Bool{Must: []Query{host}, Should: in("p0", "p2", "P3")},
		Bool{Must: []Query{Match{Text: "alpha"}}, Should: in("p1", "p9")},
	} {
		checkReads(t, fmt.Sprintf("compacted %#v", q), st, docs[1:], q, nil)
	}
}

// TestReadPathDifferentialConcurrent runs reads beside IndexBatch writers,
// a Delete loop and Compact. No reference can name the instant a read
// observed, so each read is checked against what any instant allows:
//
//   - Every document it reports was indexed with exactly that content and
//     matches the query.
//   - What it saw of each shard is a prefix of that shard's append order —
//     ids ascend in append order, so a visible id implies every smaller id
//     of its shard is visible too, unless it was deleted.
//   - Every document committed before the read began and never deleted is
//     in it (for a bounded search: unless k better hits are).
//
// Each document carries a unique "slot" value and a unique second, so
// Terms, Pivot and DateHistogram reveal the set they counted. Afterwards,
// quiescent, the full differential suite must hold, every live id must be
// Get-able, and no deleted one.
func TestReadPathDifferentialConcurrent(t *testing.T) {
	const (
		writers   = 3
		batches   = 24
		batchSize = 40
		nsh       = 4
	)
	st := New(nsh)
	base := time.Unix(1800000000, 0)

	var mu sync.Mutex // guards committed, byID, deleted
	var committed []Doc
	byID := map[int64]Doc{}
	deleted := map[int64]bool{}
	var slot atomic.Int64

	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for b := 0; b < batches; b++ {
				docs := make([]Doc, batchSize)
				for i := range docs {
					s := slot.Add(1)
					docs[i] = Doc{
						Time: base.Add(time.Duration(s) * time.Second),
						Fields: F("slot", strconv.FormatInt(s, 10),
							"hostname", pick(rng, diffVocab.hosts),
							"app", pick(rng, diffVocab.apps)),
						Body: pick(rng, diffVocab.bodies),
					}
				}
				st.IndexBatch(docs)
				mu.Lock()
				committed = append(committed, docs...)
				for _, d := range docs {
					byID[d.ID] = d
				}
				mu.Unlock()
			}
		}(w)
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() { // deleter
		defer churn.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			var id int64 = -1
			if 4*len(deleted) < len(committed) { // keep three quarters alive
				id = committed[rng.Intn(len(committed))].ID
				// Marked before the call: a read overlapping the delete
				// may or may not still see the document.
				deleted[id] = true
			}
			mu.Unlock()
			if id >= 0 {
				st.Delete(id)
			}
			runtime.Gosched()
		}
	}()
	go func() { // compactor
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st.Compact()
				runtime.Gosched()
			}
		}
	}()

	queries := []Query{
		MatchAll{},
		Match{Text: "temperature"},
		Term{Field: "hostname", Value: "cn001"},
		Bool{Must: []Query{Term{Field: "app", Value: "kernel"}}, MustNot: []Query{Match{Text: "link"}}},
		Bool{Must: []Query{MatchAll{}}, Should: []Query{Term{Field: "hostname", Value: "gpu01"}, Term{Field: "hostname", Value: "mgmt"}}},
	}
	// observation is one read's outcome, checked once the writers are done
	// and every id can be resolved to what was indexed under it.
	type observation struct {
		what  string
		q     Query
		ids   []int64 // documents the read reported, in its order
		slots []string
		k     int // > 0: a bounded search of size k
		asc   bool
		must  []int64 // committed before the read began, matching q
	}
	var obsMu sync.Mutex
	var observations []observation
	var reading sync.WaitGroup
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[rng.Intn(len(queries))]
				mu.Lock()
				var must []int64
				for i := range committed {
					if q.matches(&committed[i]) {
						must = append(must, committed[i].ID)
					}
				}
				mu.Unlock()
				o := observation{q: q, must: must}
				switch op := rng.Intn(6); op {
				case 0:
					o.what = "Search(all)"
					for _, h := range st.Search(SearchRequest{Query: q, Size: -1}) {
						o.ids = append(o.ids, h.Doc.ID)
					}
				case 1:
					o.what, o.k, o.asc = "Search(k)", 1+rng.Intn(20), rng.Intn(2) == 0
					for _, h := range st.Search(SearchRequest{Query: q, Size: o.k, SortAsc: o.asc}) {
						o.ids = append(o.ids, h.Doc.ID)
					}
				case 2:
					o.what = "Terms(slot)"
					for _, b := range st.Terms(q, "slot", 0) {
						if b.Count != 1 {
							t.Errorf("Terms: slot %s counted %d times", b.Value, b.Count)
						}
						o.slots = append(o.slots, b.Value)
					}
				case 3:
					o.what = "Pivot(slot)"
					for _, b := range st.Pivot(q, "slot", "hostname") {
						if b.Count != 1 || len(b.Sub[0]) > 1 {
							t.Errorf("Pivot: slot %s: count %d, hostnames %v", b.Value, b.Count, b.Sub[0])
						}
						o.slots = append(o.slots, b.Value)
					}
				case 4:
					o.what = "DateHistogram(1s)"
					for _, b := range st.DateHistogramSparse(q, time.Second) {
						if b.Count != 1 {
							t.Errorf("DateHistogram: second %v counted %d times", b.Start, b.Count)
						}
						o.slots = append(o.slots, strconv.FormatInt(int64(b.Start.Sub(base)/time.Second), 10))
					}
				case 5:
					// A count names no documents; it can only be bounded.
					n := st.CountQuery(q)
					live := 0
					mu.Lock()
					for _, id := range must {
						if !deleted[id] {
							live++
						}
					}
					mu.Unlock()
					if n < live {
						t.Errorf("CountQuery(%#v) = %d, but %d matching documents were committed before it and never deleted", q, n, live)
					}
					continue
				}
				obsMu.Lock()
				observations = append(observations, o)
				obsMu.Unlock()
			}
		}(r)
	}
	writing.Wait()
	close(stop)
	churn.Wait()
	reading.Wait()

	bySlot := map[string]int64{}
	for id, d := range byID {
		bySlot[d.Fields.Value("slot")] = id
	}
	if len(observations) == 0 {
		t.Fatal("no read completed beside the writers")
	}
	for _, o := range observations {
		label := fmt.Sprintf("%s %#v", o.what, o.q)
		ids := o.ids
		for _, s := range o.slots {
			id, ok := bySlot[s]
			if !ok {
				t.Fatalf("%s: reported slot %q, which no writer indexed", label, s)
			}
			ids = append(ids, id)
		}
		seen := map[int64]bool{}
		newest := make([]int64, nsh) // per shard: the largest id seen
		for i := range newest {
			newest[i] = -1
		}
		for _, id := range ids {
			d, ok := byID[id]
			if !ok || !o.q.matches(&d) {
				t.Fatalf("%s: reported id %d (indexed: %v), which does not match", label, id, ok)
			}
			if seen[id] {
				t.Fatalf("%s: reported id %d twice", label, id)
			}
			seen[id] = true
			newest[id%nsh] = max(newest[id%nsh], id)
		}
		if o.k == 0 {
			for id, d := range byID {
				if id < newest[id%nsh] && !seen[id] && !deleted[id] && o.q.matches(&d) {
					t.Fatalf("%s: saw id %d of shard %d but not the earlier, never-deleted id %d", label, newest[id%nsh], id%nsh, id)
				}
			}
		}
		// A bounded search may leave a committed document out only for k
		// hits that sort ahead of it.
		before := func(a, b Doc) bool {
			return topEnt{sec: a.Time.Unix(), id: a.ID}.before(topEnt{sec: b.Time.Unix(), id: b.ID}, o.asc)
		}
		for i := 1; o.k > 0 && i < len(o.ids); i++ {
			if !before(byID[o.ids[i-1]], byID[o.ids[i]]) {
				t.Fatalf("%s: hits %d and %d out of order", label, i-1, i)
			}
		}
		for _, id := range o.must {
			if seen[id] || deleted[id] {
				continue
			}
			if o.k == 0 || len(o.ids) < o.k || before(byID[id], byID[o.ids[len(o.ids)-1]]) {
				t.Fatalf("%s: id %d was committed before the read, never deleted, and is missing (k=%d, %d hits)", label, id, o.k, len(o.ids))
			}
		}
	}

	// Quiescent: ids are dense, live ones Get-able, deleted ones gone, and
	// the whole suite holds against the survivors.
	var live []Doc
	for id := int64(0); id < writers*batches*batchSize; id++ {
		d, ok := byID[id]
		if !ok {
			t.Fatalf("id %d was never assigned: ids are not dense", id)
		}
		got, found := st.Get(id)
		switch {
		case deleted[id] && found:
			t.Fatalf("Get(%d) returned a deleted document", id)
		case !deleted[id] && (!found || !sameDoc(&got, &d)):
			t.Fatalf("Get(%d) = %+v, %v; indexed %+v", id, got, found, d)
		case !deleted[id]:
			live = append(live, d)
		}
	}
	for qi, q := range queries {
		checkReads(t, fmt.Sprintf("quiescent query %d %#v", qi, q), st, live, q, nil)
	}
}

// TestParallelStripesEqualSerial is the audit of bodyMemo and fieldMemo
// under IndexBatch's parallel stripes: a stripe owns its shard — every map,
// memo, scratch buffer and block of it — for as long as it holds that
// shard's write lock, and touches nothing else. If that holds, what a shard
// contains is a function of the sequence of documents it was dealt and of
// nothing the other stripes, writers or readers did. So: two writers send
// batches large enough to fan out, with more distinct bodies and field
// pairs per shard than either memo holds (both reset mid-run, and pairs
// seen before the reset are memoized again after it), readers run beside
// them, and afterwards every shard must equal — entries, rows, pair table,
// every posting list, the chunk and header counts — a shard that was handed
// the same documents one at a time.
func TestParallelStripesEqualSerial(t *testing.T) {
	const (
		nsh       = 4
		writers   = 2
		batchSize = 4 * parallelBatchMin * nsh
		perWriter = nsh * maxBodyMemo * 3 / 2 / writers / batchSize * batchSize
	)
	st := New(nsh)
	base := time.Unix(1800000000, 0)
	sent := make([][]Doc, writers)
	var writing sync.WaitGroup
	for w := range sent {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for n := 0; n < perWriter; n += batchSize {
				docs := make([]Doc, batchSize)
				for i := range docs {
					slot := w*perWriter + n + i
					body := "unit reports nominal state" // every sixth document repeats a body
					if slot%6 != 0 {
						body = "job " + strconv.Itoa(slot) + " finished on unit " + strconv.Itoa(slot%97)
					}
					docs[i] = Doc{
						Time:   base.Add(time.Duration(slot) * time.Second),
						Fields: F("slot", strconv.Itoa(slot), "hostname", "cn"+strconv.Itoa(slot%61), "app", "slurmd"),
						Body:   body,
					}
				}
				st.IndexBatch(docs)
				sent[w] = append(sent[w], docs...)
			}
		}(w)
	}
	stop := make(chan struct{})
	var reading sync.WaitGroup
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Terms(Match{Text: "finished"}, "hostname", 0)
				st.Search(SearchRequest{Query: Term{Field: "app", Value: "slurmd"}, Size: 5})
				runtime.Gosched()
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()

	// Document for document: everything sent is stored once, as sent.
	if got := st.Count(); got != writers*perWriter {
		t.Fatalf("store holds %d documents, %d were sent", got, writers*perWriter)
	}
	for _, docs := range sent {
		for i := range docs {
			if got, ok := st.Get(docs[i].ID); !ok || !sameDoc(&got, &docs[i]) {
				t.Fatalf("Get(%d) = %+v, %v; sent %+v", docs[i].ID, got, ok, docs[i])
			}
		}
	}
	// Shard for shard: replay what each shard was dealt, serially.
	for si, sh := range st.shards {
		if sh.memoMisses <= maxBodyMemo || len(sh.pairs) <= maxBodyMemo {
			t.Fatalf("shard %d saw %d distinct bodies and %d pairs; neither memo was reset (bad fixture)", si, sh.memoMisses, len(sh.pairs))
		}
		serial := newShard(int64(si), nsh)
		var d Doc
		for off := range sh.ents {
			sh.fillDoc(int32(off), &d)
			serial.index(d)
		}
		same := slices.Equal(sh.ents, serial.ents) && slices.Equal(sh.fEnds, serial.fEnds) &&
			slices.Equal(sh.fieldIDs, serial.fieldIDs) && slices.Equal(sh.pairs, serial.pairs) &&
			sh.nChunks == serial.nChunks && sh.nPost == serial.nPost && sh.nInline == serial.nInline &&
			sh.memoHits == serial.memoHits && sh.memoMisses == serial.memoMisses
		if !same {
			t.Fatalf("shard %d differs from its serial replay in entries, rows, pairs or counts", si)
		}
		for name, lists := range map[string][2]map[string]*postings{"text": {sh.text, serial.text}, "field": {sh.field, serial.field}} {
			if len(lists[0]) != len(lists[1]) {
				t.Fatalf("shard %d: %d %s lists, serial replay has %d", si, len(lists[0]), name, len(lists[1]))
			}
			for key, p := range lists[0] {
				if got, want := sh.appendPostings(nil, p, 0), serial.appendPostings(nil, lists[1][key], 0); !slices.Equal(got, want) {
					t.Fatalf("shard %d: %s list %q = %v, serial replay %v", si, name, key, got, want)
				}
			}
		}
		for id, p := range sh.pairPost {
			if !slices.Equal(sh.appendPostings(nil, p, 0), serial.appendPostings(nil, serial.pairPost[id], 0)) {
				t.Fatalf("shard %d: pair %d names a different list than in the serial replay", si, id)
			}
		}
	}
}
