package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

func doc(offset time.Duration, host, app, body string) Doc {
	return Doc{
		Time:   t0.Add(offset),
		Fields: F("hostname", host, "app", app),
		Body:   body,
	}
}

func seed(st *Store) {
	st.Index(doc(0, "cn101", "kernel", "CPU temperature above threshold, cpu clock throttled"))
	st.Index(doc(time.Minute, "cn102", "sshd", "Connection closed by 10.0.0.1 port 22 [preauth]"))
	st.Index(doc(2*time.Minute, "cn101", "slurmd", "error: Node cn101 has low real_memory size"))
	st.Index(doc(3*time.Minute, "cn103", "kernel", "usb 1-1: new high-speed USB device number 4"))
	st.Index(doc(4*time.Minute, "cn101", "kernel", "CPU 2 temperature above threshold, throttled"))
}

func TestAnalyze(t *testing.T) {
	got := Analyze("error: Node cn101 has low real_memory size (190000 < 256000)")
	want := []string{"error", "node", "cn101", "has", "low", "real_memory", "size", "190000", "256000"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Analyze = %v", got)
	}
}

func TestIndexAndGet(t *testing.T) {
	st := New(4)
	id := st.Index(doc(0, "cn1", "app", "hello world"))
	d, ok := st.Get(id)
	if !ok || d.Body != "hello world" || d.ID != id {
		t.Fatalf("Get = %+v, %v", d, ok)
	}
	if _, ok := st.Get(999); ok {
		t.Error("Get of absent id succeeded")
	}
	if _, ok := st.Get(-1); ok {
		t.Error("Get of negative id succeeded")
	}
}

func TestTermQuery(t *testing.T) {
	st := New(3)
	seed(st)
	hits := st.Search(SearchRequest{Query: Term{Field: "hostname", Value: "cn101"}, Size: -1})
	if len(hits) != 3 {
		t.Fatalf("hits = %d, want 3", len(hits))
	}
	// Case-insensitive.
	hits = st.Search(SearchRequest{Query: Term{Field: "hostname", Value: "CN101"}, Size: -1})
	if len(hits) != 3 {
		t.Errorf("case-insensitive term = %d hits", len(hits))
	}
}

func TestMatchQuery(t *testing.T) {
	st := New(3)
	seed(st)
	hits := st.Search(SearchRequest{Query: Match{Text: "temperature throttled"}, Size: -1})
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(hits))
	}
	// Token absent from the index -> no hits.
	hits = st.Search(SearchRequest{Query: Match{Text: "temperature nonexistenttoken"}, Size: -1})
	if len(hits) != 0 {
		t.Errorf("impossible match returned %d hits", len(hits))
	}
}

func TestBoolQuery(t *testing.T) {
	st := New(3)
	seed(st)
	q := Bool{
		Must:    []Query{Term{Field: "hostname", Value: "cn101"}},
		MustNot: []Query{Match{Text: "real_memory"}},
	}
	hits := st.Search(SearchRequest{Query: q, Size: -1})
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(hits))
	}
	for _, h := range hits {
		if h.Doc.Fields.Value("app") != "kernel" {
			t.Errorf("unexpected hit: %+v", h.Doc)
		}
	}
	// Should semantics: at least one must match.
	q2 := Bool{Should: []Query{Match{Text: "usb"}, Match{Text: "preauth"}}}
	if got := len(st.Search(SearchRequest{Query: q2, Size: -1})); got != 2 {
		t.Errorf("should query hits = %d, want 2", got)
	}
}

func TestTimeRange(t *testing.T) {
	st := New(3)
	seed(st)
	q := TimeRange{From: t0.Add(time.Minute), To: t0.Add(3 * time.Minute)}
	hits := st.Search(SearchRequest{Query: q, Size: -1})
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2 (half-open interval)", len(hits))
	}
	// Open-ended range.
	if got := len(st.Search(SearchRequest{Query: TimeRange{From: t0.Add(2 * time.Minute)}, Size: -1})); got != 3 {
		t.Errorf("open range hits = %d, want 3", got)
	}
}

func TestSearchOrderingAndSize(t *testing.T) {
	st := New(2)
	seed(st)
	hits := st.Search(SearchRequest{Size: 2})
	if len(hits) != 2 {
		t.Fatalf("size cap ignored: %d", len(hits))
	}
	// Default: newest first.
	if !hits[0].Doc.Time.After(hits[1].Doc.Time) {
		t.Error("default order should be newest-first")
	}
	asc := st.Search(SearchRequest{Size: -1, SortAsc: true})
	for i := 1; i < len(asc); i++ {
		if asc[i].Doc.Time.Before(asc[i-1].Doc.Time) {
			t.Fatal("ascending order violated")
		}
	}
}

func TestCountQuery(t *testing.T) {
	st := New(3)
	seed(st)
	if got := st.CountQuery(Match{Text: "temperature"}); got != 2 {
		t.Errorf("CountQuery = %d", got)
	}
	if st.Count() != 5 {
		t.Errorf("Count = %d", st.Count())
	}
}

func TestDateHistogram(t *testing.T) {
	st := New(2)
	seed(st)
	buckets := st.DateHistogram(MatchAll{}, time.Minute)
	if len(buckets) != 5 {
		t.Fatalf("buckets = %d, want 5 contiguous minutes", len(buckets))
	}
	total := 0
	for _, b := range buckets {
		total += b.Count
	}
	if total != 5 {
		t.Errorf("histogram total = %d", total)
	}
	// Empty result.
	if got := st.DateHistogram(Match{Text: "absent"}, time.Minute); got != nil {
		t.Errorf("empty histogram = %v", got)
	}
}

func TestDateHistogramIncludesEmptyBuckets(t *testing.T) {
	st := New(1)
	st.Index(doc(0, "a", "x", "one"))
	st.Index(doc(10*time.Minute, "a", "x", "two"))
	buckets := st.DateHistogram(MatchAll{}, time.Minute)
	if len(buckets) != 11 {
		t.Fatalf("buckets = %d, want 11", len(buckets))
	}
	empties := 0
	for _, b := range buckets {
		if b.Count == 0 {
			empties++
		}
	}
	if empties != 9 {
		t.Errorf("empty buckets = %d, want 9", empties)
	}
}

func TestTermsAggregation(t *testing.T) {
	st := New(3)
	seed(st)
	buckets := st.Terms(MatchAll{}, "hostname", 0)
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if buckets[0].Value != "cn101" || buckets[0].Count != 3 {
		t.Errorf("top bucket = %+v", buckets[0])
	}
	capped := st.Terms(MatchAll{}, "hostname", 1)
	if len(capped) != 1 {
		t.Errorf("size cap ignored: %d", len(capped))
	}
}

func TestConcurrentIndexAndSearch(t *testing.T) {
	st := New(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Index(doc(time.Duration(i)*time.Second, fmt.Sprintf("cn%d", g),
					"kernel", fmt.Sprintf("message %d from goroutine %d", i, g)))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				st.Search(SearchRequest{Query: Match{Text: "message"}, Size: 5})
			}
		}()
	}
	wg.Wait()
	if st.Count() != 800 {
		t.Errorf("Count = %d, want 800", st.Count())
	}
	// Every doc retrievable by id.
	for id := int64(0); id < 800; id++ {
		if _, ok := st.Get(id); !ok {
			t.Fatalf("doc %d missing", id)
		}
	}
}

func TestShardDistribution(t *testing.T) {
	st := New(4)
	for i := 0; i < 100; i++ {
		st.Index(doc(0, "h", "a", "b"))
	}
	for i, sh := range st.shards {
		sh.mu.RLock()
		n := len(sh.ents)
		sh.mu.RUnlock()
		if n != 25 {
			t.Errorf("shard %d has %d docs, want 25", i, n)
		}
	}
}

func BenchmarkIndex(b *testing.B) {
	st := New(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Index(doc(time.Duration(i)*time.Millisecond, "cn101", "kernel",
			"CPU temperature above threshold, cpu clock throttled"))
	}
}

func BenchmarkSearchMatch(b *testing.B) {
	st := New(4)
	for i := 0; i < 10000; i++ {
		st.Index(doc(time.Duration(i)*time.Second, fmt.Sprintf("cn%03d", i%128),
			"kernel", fmt.Sprintf("CPU %d temperature above threshold event %d", i%64, i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Search(SearchRequest{Query: Match{Text: "temperature threshold"}, Size: 10})
	}
}

// BenchmarkAnalyzeInto contrasts the allocating Analyze with the
// scratch-reusing AnalyzeInto the indexing path now uses.
func BenchmarkAnalyzeInto(b *testing.B) {
	body := "error: Node cn101 has low real_memory size (190000 < 256000)"
	b.Run("Analyze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Analyze(body)
		}
	})
	b.Run("AnalyzeInto", func(b *testing.B) {
		scratch := AnalyzeInto(body, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scratch = AnalyzeInto(body, scratch[:0])
		}
	})
}

// BenchmarkShardingFactor measures indexing throughput at different shard
// counts under concurrent writers (DESIGN.md ablation: sharding factor for
// indexing throughput).
func BenchmarkShardingFactor(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := New(shards)
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					st.Index(doc(time.Duration(i)*time.Millisecond, "cn101", "kernel",
						"CPU temperature above threshold, cpu clock throttled"))
					i++
				}
			})
		})
	}
}
