package store

import (
	"fmt"
	"testing"
	"time"

	"hetsyslog/internal/obs"
	"hetsyslog/internal/raceflag"
)

// canonicalDoc builds a doc shaped like the collector's RecordToDoc
// output: the canonical field set plus a short repeated body, i.e. the
// steady-state input the index hot path sees from live syslog traffic.
func canonicalDoc(i int) Doc {
	return Doc{
		Time: time.Unix(int64(i), 0),
		Fields: F(
			"tag", "syslog",
			"hostname", fmt.Sprintf("cn%03d", i%64),
			"app", "kernel",
			"severity", "warning",
			"facility", "kern",
			"category", "hardware_issue",
		),
		Body: fmt.Sprintf("CPU %d temperature above threshold, cpu clock throttled", i%16),
	}
}

// TestIndexBatchSteadyStateAllocs enforces the store-side acceptance bar
// of the socket→store fast path: once the shard has seen a body shape and
// its field values, indexing another canonical doc performs zero heap
// allocations — the body resolves through bodyMemo, every posting append
// is in place, and field keys build in the shard's scratch buffer. Only
// amortized posting-list growth allocates, and the warmup leaves enough
// capacity slack that the measured window never grows. Skipped under
// -race like every AllocsPerRun ceiling in this repo.
func TestIndexBatchSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	st := New(1)
	warm := make([]Doc, 4608)
	for i := range warm {
		warm[i] = canonicalDoc(i)
	}
	st.IndexBatch(warm)

	batch := make([]Doc, 8)
	for i := range batch {
		batch[i] = canonicalDoc(i)
	}
	if n := testing.AllocsPerRun(20, func() {
		st.IndexBatch(batch)
	}); n != 0 {
		t.Errorf("IndexBatch steady-state allocs/op = %v, want 0", n)
	}
}

// TestIndexSteadyStateAllocs is the single-doc counterpart: the Index
// entry point shares indexLocked with IndexBatch, so it inherits the same
// zero-allocation steady state.
func TestIndexSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	st := New(1)
	warm := make([]Doc, 4608)
	for i := range warm {
		warm[i] = canonicalDoc(i)
	}
	st.IndexBatch(warm)

	d := canonicalDoc(1)
	if n := testing.AllocsPerRun(100, func() {
		st.Index(d)
	}); n != 0 {
		t.Errorf("Index steady-state allocs/op = %v, want 0", n)
	}
}

// TestQuerySteadyStateAllocs pins counts at zero allocations once the
// pooled evaluators have grown: a Term binds to its posting list through a
// stack-built key, a Match analyzes its (lowercase) text into the
// evaluator's scratch, and the walk touches postings only.
func TestQuerySteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	st := New(4)
	for i := 0; i < 4096; i++ {
		st.Index(canonicalDoc(i))
	}
	cases := []struct {
		name    string
		q       Query
		ceiling float64
	}{
		{"term", Term{Field: "app", Value: "kernel"}, 0},
		{"match_single_token", Match{Text: "throttled"}, 0},
		{"match_multi_token", Match{Text: "temperature threshold"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := st.CountQuery(tc.q); got == 0 {
				t.Fatalf("query %v matched nothing; bad fixture", tc.q)
			}
			if n := testing.AllocsPerRun(100, func() {
				st.CountQuery(tc.q)
			}); n > tc.ceiling {
				t.Errorf("CountQuery(%v) allocs/op = %v, want <= %v", tc.q, n, tc.ceiling)
			}
		})
	}
}

// BenchmarkStoreIndexBatch measures the batched index path in isolation —
// the store-side half of the socket→store gap. Retention pruning runs
// off-clock, as a deployment's retention loop would, so the numbers
// reflect steady-state indexing rather than unbounded corpus growth.
func BenchmarkStoreIndexBatch(b *testing.B) {
	const batchSize = 128
	st := New(4)
	batch := make([]Doc, batchSize)
	for i := range batch {
		batch[i] = canonicalDoc(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.IndexBatch(batch)
		if st.Count() >= 1<<16 {
			b.StopTimer()
			st.DeleteBefore(time.Unix(1<<40, 0))
			st.Compact()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "recs/s")
}

// BenchmarkStoreIndexSingle is the per-doc baseline the batch path is
// measured against: same docs, one lock round-trip per document.
func BenchmarkStoreIndexSingle(b *testing.B) {
	st := New(4)
	docs := make([]Doc, 1024)
	for i := range docs {
		docs[i] = canonicalDoc(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Index(docs[i%1024])
		if st.Count() >= 1<<16 {
			b.StopTimer()
			st.DeleteBefore(time.Unix(1<<40, 0))
			st.Compact()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recs/s")
}

// dashboardStore fills a 6-shard store with n documents shaped like the
// deployed pipeline's output — the eight canonical fields over 512 hosts
// in 8 racks and 6 architectures, 8 categories (one of them 30 % of the
// corpus), timestamps 3.6 ms apart, bodies drawn from 512 templates plus
// a job number — so the read-path
// ceilings and benchmarks walk the same shapes a dashboard refresh does.
func dashboardStore(n int) *Store {
	st := New(6)
	docs := make([]Doc, 0, 1024)
	for i := 0; i < n; i++ {
		docs = append(docs, dashboardDoc(i))
		if len(docs) == cap(docs) {
			st.IndexBatch(docs)
			docs = docs[:0]
		}
	}
	st.IndexBatch(docs)
	return st
}

// dashboardDoc is the i-th document of dashboardStore's corpus.
func dashboardDoc(i int) Doc {
	host := (i * 131) % 512
	return Doc{
		Time: time.Unix(1_700_000_000, 0).Add(time.Duration(i) * 3600 * time.Microsecond),
		Fields: F(
			"tag", "syslog",
			"hostname", fmt.Sprintf("cn%03d", host),
			"app", []string{"kernel", "sshd", "slurmd", "systemd"}[i%4],
			"severity", "warning",
			"facility", "kern",
			"rack", fmt.Sprintf("r%d", host/64),
			"arch", fmt.Sprintf("arch%d", host%6),
			"category", fmt.Sprintf("category_%d", max(0, (i/7)%10-2)),
		),
		Body: fmt.Sprintf("unit %d reports %s state on cpu%d job=%d",
			i%512, []string{"thermal", "nominal", "degraded"}[i%3], i%16, i),
	}
}

// dashboardRead is one read a dashboard refresh issues.
type dashboardRead struct {
	name string
	run  func()
}

// dashboardReads returns the reads of one refresh over st.
func dashboardReads(st *Store) []dashboardRead {
	thermalOnArch := Bool{Must: []Query{
		Term{Field: "category", Value: "category_0"}, Term{Field: "arch", Value: "arch2"}}}
	return []dashboardRead{
		{"histogram", func() { st.DateHistogramSparse(MatchAll{}, time.Minute) }},
		{"pivot_rack", func() { st.Pivot(MatchAll{}, "rack", "category", "hostname") }},
		{"terms_perarch", func() { st.Terms(thermalOnArch, "hostname", 0) }},
		{"count_category", func() { st.CountQuery(Term{Field: "category", Value: "category_3"}) }},
		{"terms_hostname", func() { st.Terms(MatchAll{}, "hostname", 10) }},
		{"search_broad", func() { st.Search(SearchRequest{Query: Match{Text: "reports"}, Size: 10}) }},
		{"search_selective", func() {
			st.Search(SearchRequest{Query: Bool{Must: []Query{
				Term{Field: "hostname", Value: "cn101"}, Match{Text: "thermal"}}}, Size: 10})
		}},
	}
}

// TestReadPathSteadyStateAllocs pins what the document-free read path
// promises about memory: a bounded search materializes its hits and
// otherwise allocates per shard, never per match; aggregations allocate
// per distinct bucket and per shard, never per match. Each ceiling is
// checked on 10 000 and on 40 000 matching documents with the same
// distinct values, and the two must agree.
func TestReadPathSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	small, large := dashboardStore(10_000), dashboardStore(40_000)
	const (
		shards = 6
		size   = 10
		hosts  = 512
		racks  = 8
		cats   = 8
	)
	broad := Match{Text: "reports"} // every document
	if n := large.CountQuery(broad); n < 20_000 {
		t.Fatalf("broad query matches %d documents; bad fixture", n)
	}
	reads := []struct {
		name    string
		ceiling float64
		run     func(st *Store)
	}{
		{"search_broad", size + 8*shards, func(st *Store) {
			if got := len(st.Search(SearchRequest{Query: broad, Size: size})); got != size {
				t.Fatalf("broad search returned %d hits", got)
			}
		}},
		{"count_broad", 0, func(st *Store) { st.CountQuery(broad) }},
		{"terms_hostname", hosts + 8*shards, func(st *Store) { st.Terms(MatchAll{}, "hostname", 0) }},
		{"histogram", 8 + 8*shards, func(st *Store) { st.DateHistogramSparse(broad, time.Hour) }},
		{"pivot_rack", racks*(cats+3) + hosts + 8*shards, func(st *Store) { st.Pivot(MatchAll{}, "rack", "category", "hostname") }},
	}
	for _, r := range reads {
		t.Run(r.name, func(t *testing.T) {
			r.run(small) // grow the pooled evaluators before counting
			r.run(large)
			onSmall := testing.AllocsPerRun(20, func() { r.run(small) })
			onLarge := testing.AllocsPerRun(20, func() { r.run(large) })
			if onLarge > r.ceiling {
				t.Errorf("%s allocs/op = %v over 40 000 matches, want <= %v", r.name, onLarge, r.ceiling)
			}
			if onLarge > onSmall+2 {
				t.Errorf("%s allocs/op grow with the match count: %v over 10 000 matches, %v over 40 000", r.name, onSmall, onLarge)
			}
		})
	}
}

// TestQueryMetricsMaterializeOnlyHits makes "reads walk N entries and copy
// only hits" a fact on the registry: over one refresh-shaped query set,
// store_docs_materialized_total grows by exactly the number of hits
// returned — the aggregations and counts copy nothing — and
// store_query_candidates records one observation per query.
func TestQueryMetricsMaterializeOnlyHits(t *testing.T) {
	st := dashboardStore(20_000)
	st.Instrument(obs.NewRegistry())
	queries, returned := 0, 0
	search := func(q Query, size int) {
		queries++
		returned += len(st.Search(SearchRequest{Query: q, Size: size}))
	}
	st.DateHistogram(MatchAll{}, time.Minute)
	st.Pivot(MatchAll{}, "rack", "category", "hostname")
	st.Terms(Bool{Must: []Query{Term{Field: "category", Value: "category_0"}, Term{Field: "arch", Value: "arch2"}}}, "hostname", 0)
	st.CountQuery(Term{Field: "category", Value: "category_3"})
	st.Terms(MatchAll{}, "hostname", 10)
	queries += 5
	search(Match{Text: "reports"}, 10)
	search(Bool{Must: []Query{Term{Field: "hostname", Value: "cn101"}, Match{Text: "thermal"}}}, 10)
	search(Term{Field: "hostname", Value: "nowhere"}, 10)
	search(Term{Field: "hostname", Value: "cn007"}, -1)
	if returned <= 20 {
		t.Fatalf("searches returned %d hits; bad fixture", returned)
	}
	if got := st.materialized.Value(); got != int64(returned) {
		t.Errorf("store_docs_materialized_total = %d, searches returned %d hits", got, returned)
	}
	if got := st.queryCands.Count(); got != int64(queries) {
		t.Errorf("store_query_candidates has %d observations after %d queries", got, queries)
	}
	// The unfiltered views walk every entry; the selective search does not.
	if walked := st.queryCands.Sum(); walked < 3*20_000 || walked > 6*20_000 {
		t.Errorf("store_query_candidates sums to %v entries over a 20 000-document store", walked)
	}
	if _, ok := st.Get(3); !ok || st.materialized.Value() != int64(returned)+1 {
		t.Errorf("Get is one more materialized document; counter = %d", st.materialized.Value())
	}
}

// BenchmarkDashboardReads times each read a dashboard refresh issues, on
// 100 000 documents: repeated on an unchanged store, where the read is
// answered from its views, and — the _after_append variants — with 128
// documents appended before every read, so that it walks them. An
// _after_append op is the append and the read; read-ns/op is the read
// alone. Each variant grows its own store by 128 documents an op, so pass
// a -benchtime in ops (e.g. 2000x) to bound it.
func BenchmarkDashboardReads(b *testing.B) {
	const appended = 128
	st := dashboardStore(100_000)
	for i, r := range dashboardReads(st) {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.run()
			}
		})
		b.Run(r.name+"_after_append", func(b *testing.B) {
			grown := dashboardStore(100_000)
			read := dashboardReads(grown)[i].run
			read()
			batch, next := make([]Doc, appended), 100_000
			var walking time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for j := range batch {
					batch[j] = dashboardDoc(next)
					next++
				}
				grown.IndexBatch(batch)
				start := time.Now()
				read()
				walking += time.Since(start)
			}
			b.ReportMetric(float64(walking.Nanoseconds())/float64(b.N), "read-ns/op")
		})
	}
}

// BenchmarkOneOffReads times reads that do not repeat — ad-hoc queries —
// on 100 000 documents. Each op reads the next of a cycle of distinct
// queries. In the one_off variants the cycle is longer than a shard's
// seen set, so no key is ever read twice as far as the shard can tell:
// every read walks in a pooled private view, as it would without views.
// In the churn variants the cycle is twice maxViews: each key comes back
// often enough to be kept, but the views are dropped wholesale before it
// does again, so reads walk from offset 0 and pay to set up views besides.
// The selective queries match most of one host's documents, where that
// setup weighs most; the broad ones all documents but those.
func BenchmarkOneOffReads(b *testing.B) {
	const hosts, cats = 512, 4
	st := dashboardStore(100_000)
	var selective, broad []Query
	for i := 0; i < hosts*cats; i++ {
		host := Term{Field: "hostname", Value: fmt.Sprintf("cn%03d", i%hosts)}
		cat := Term{Field: "category", Value: fmt.Sprintf("category_%d", i/hosts)}
		selective = append(selective, Bool{Must: []Query{host}, MustNot: []Query{cat}})
		broad = append(broad, Bool{Must: []Query{Match{Text: "reports"}}, MustNot: []Query{host, cat}})
	}
	reads := []struct {
		name string
		run  func(q Query)
	}{
		{"count", func(q Query) { st.CountQuery(q) }},
		{"histogram", func(q Query) { st.DateHistogramSparse(q, time.Minute) }},
		{"terms", func(q Query) { st.Terms(q, "app", 0) }},
		{"pivot", func(q Query) { st.Pivot(q, "category", "app") }},
		{"search", func(q Query) { st.Search(SearchRequest{Query: q, Size: 10}) }},
	}
	for _, cycle := range []struct {
		name string
		len  int
	}{{"one_off", 2 * maxSeen}, {"churn", 2 * maxViews}} {
		for _, shape := range []struct {
			name string
			qs   []Query
		}{{"selective", selective}, {"broad", broad}} {
			for _, r := range reads {
				b.Run(cycle.name+"_"+shape.name+"_"+r.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						r.run(shape.qs[i%cycle.len])
					}
				})
			}
		}
	}
}
