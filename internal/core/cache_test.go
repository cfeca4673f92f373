package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hetsyslog/internal/collector"
	"hetsyslog/internal/loggen"
	"hetsyslog/internal/monitor"
	"hetsyslog/internal/obs"
	"hetsyslog/internal/raceflag"
	"hetsyslog/internal/store"
)

// TestClassifyCacheLRU exercises bounded eviction: the least recently
// used raw entry leaves first, and the eviction counter counts it.
func TestClassifyCacheLRU(t *testing.T) {
	c := NewClassifyCache(1, 3)
	evictions := obs.NewCounter()
	c.rawEvictions = evictions

	c.StoreRaw("a", 0)
	c.StoreRaw("b", 1)
	c.StoreRaw("c", 2)
	if _, ok := c.LookupRaw("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a should be cached")
	}
	c.StoreRaw("d", 3)
	if _, ok := c.LookupRaw("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	for k, want := range map[string]int{"a": 0, "c": 2, "d": 3} {
		got, ok := c.LookupRaw(k)
		if !ok || got != want {
			t.Errorf("LookupRaw(%q) = (%d, %v), want (%d, true)", k, got, ok, want)
		}
	}
	if evictions.Value() != 1 {
		t.Errorf("evictions = %d, want 1", evictions.Value())
	}
	// Re-storing an existing key refreshes in place, no eviction.
	c.StoreRaw("c", 9)
	if got, _ := c.LookupRaw("c"); got != 9 {
		t.Errorf("refreshed label = %d, want 9", got)
	}
	if evictions.Value() != 1 {
		t.Errorf("refresh evicted: %d", evictions.Value())
	}
}

// TestClassifyCacheMaskedLevel checks the two-level scheme end to end:
// distinct raw messages from one template family share a masked entry,
// and a masked hit promotes into the raw level.
func TestClassifyCacheMaskedLevel(t *testing.T) {
	tc := trainSmall(t)
	c := NewClassifyCache(4, 1024)
	var sc ClassifyScratch

	msgA := "CPU 3 Temperature Above Non-Recoverable - Asserted. Current reading: 91"
	msgB := "CPU 4 Temperature Above Non-Recoverable - Asserted. Current reading: 107"

	labelA, outcome := tc.PredictCached(msgA, c, &sc)
	if outcome != CacheMiss {
		t.Fatalf("first classification outcome = %v, want miss", outcome)
	}
	// Same template, different values: masked hit (numbers are masked).
	labelB, outcome := tc.PredictCached(msgB, c, &sc)
	if outcome != CacheHitMasked {
		t.Errorf("template variant outcome = %v, want masked hit", outcome)
	}
	if labelA != labelB {
		t.Errorf("template variants got labels %d and %d", labelA, labelB)
	}
	// The masked hit promoted msgB: exact repeat is now a raw hit.
	if _, outcome = tc.PredictCached(msgB, c, &sc); outcome != CacheHitRaw {
		t.Errorf("repeat outcome = %v, want raw hit", outcome)
	}
	// Predictions agree with the uncached pipeline.
	if want := tc.Classify(msgA); tc.Labels[labelA] != want {
		t.Errorf("cached label %q, uncached %q", tc.Labels[labelA], want)
	}
}

// TestPredictCachedNilCache: the scratch path must work and agree with
// Classify when no cache is attached.
func TestPredictCachedNilCache(t *testing.T) {
	tc := trainSmall(t)
	var sc ClassifyScratch
	msgs := []string{
		"error: Node cn042 has low real_memory size (153694 < 256000)",
		"usb 1-1.4: new high-speed USB device number 7 using xhci_hcd",
		"session opened for user root by (uid=0)",
		"",
	}
	for _, m := range msgs {
		label, outcome := tc.PredictCached(m, nil, &sc)
		if outcome != CacheMiss {
			t.Errorf("%q: outcome = %v, want miss", m, outcome)
		}
		if got, want := tc.Labels[label], tc.Classify(m); got != want {
			t.Errorf("%q: PredictCached = %q, Classify = %q", m, got, want)
		}
	}
}

// TestClassifyCacheConcurrent hammers one cache from many goroutines over
// an overlapping key space; run under -race this audits the shard locking.
func TestClassifyCacheConcurrent(t *testing.T) {
	c := NewClassifyCache(4, 256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := make([]byte, 0, 32)
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("msg-%d", i%300)
				if label, ok := c.LookupRaw(k); ok && label != i%300 {
					t.Errorf("LookupRaw(%q) = %d, want %d", k, label, i%300)
				}
				c.StoreRaw(k, i%300)
				key = AppendMaskedKey(key[:0], []string{"tmpl", fmt.Sprint(i % 50)})
				c.StoreMasked(key, i%50)
				if label, ok := c.LookupMasked(key); ok && label != i%50 {
					t.Errorf("LookupMasked = %d, want %d", label, i%50)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Len(); got > 2*256+2*4 { // per-level budget (+ shard rounding slack)
		t.Errorf("cache grew to %d entries, budget is 512", got)
	}
}

// TestServiceCacheMetrics checks the counters and the hit-ratio gauge
// reach /metrics exposition.
func TestServiceCacheMetrics(t *testing.T) {
	tc := trainSmall(t)
	reg := obs.NewRegistry()
	svc := &Service{Classifier: tc, Cache: NewClassifyCache(2, 128), Metrics: reg}
	recs := streamRecords(3, 64)
	if err := svc.Write(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	if err := svc.Write(context.Background(), recs); err != nil { // second pass: all raw hits
		t.Fatal(err)
	}
	rawHits, maskedHits, misses := svc.CacheStats()
	if rawHits < int64(len(recs)) {
		t.Errorf("raw hits = %d, want >= %d after replay", rawHits, len(recs))
	}
	if rawHits+maskedHits+misses != 2*int64(len(recs)) {
		t.Errorf("outcome counts %d+%d+%d don't sum to %d",
			rawHits, maskedHits, misses, 2*len(recs))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`service_cache_hits_total{level="raw"} `,
		`service_cache_hits_total{level="masked"} `,
		"service_cache_misses_total ",
		`service_cache_evictions_total{level="raw"} `,
		"service_cache_hit_ratio ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// trainSmall fits the small shared corpus once per test.
func trainSmall(t *testing.T) *TextClassifier {
	t.Helper()
	c := smallCorpus(t, 2000)
	model, _ := NewModel("Complement Naive Bayes")
	tc, err := Train(model, c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// zipfRecords samples a heavily repetitive (Zipf-distributed) record
// stream — the realistic workload the cache is built for.
func zipfRecords(seed int64, n, distinct int) []collector.Record {
	g := loggen.NewGenerator(seed)
	exs := g.ZipfExamples(n, distinct, 1.2)
	recs := make([]collector.Record, n)
	for i, ex := range exs {
		recs[i] = collector.Record{Tag: "syslog", Time: ex.Time, Msg: ex.Message()}
	}
	return recs
}

// runCachedService mirrors runService but lets the caller attach a
// classify cache, and reports how many alerts fired.
func runCachedService(t *testing.T, tc *TextClassifier, recs []collector.Record, workers int, cache *ClassifyCache) (*Service, *store.Store, int) {
	t.Helper()
	st := store.New(4)
	var mu sync.Mutex
	sent := 0
	svc := &Service{
		Classifier: tc,
		Store:      st,
		Workers:    workers,
		Cache:      cache,
		Alerts: &monitor.AlertManager{Notifier: monitor.NotifierFunc(func(a monitor.Alert) {
			mu.Lock()
			sent++
			mu.Unlock()
		})},
	}
	ch := make(chan collector.Record)
	p := &collector.Pipeline{
		Source: &collector.ChannelSource{Ch: ch},
		Sink:   svc,
		Config: &collector.Config{BatchSize: 32, FlushWorkers: 1},
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	for _, r := range recs {
		ch <- r
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return svc, st, sent
}

// TestCachedParallelMatchesUncachedSerial is the cache-correctness audit:
// the same Zipf-repetitive traffic through (a) an uncached serial service
// and (b) a cached Workers=4 service must produce identical categories,
// store totals and alert counts — the cache may only change speed, never
// outcomes. Run under -race this also audits the sharded LRU locking in
// situ.
func TestCachedParallelMatchesUncachedSerial(t *testing.T) {
	tc := trainSmall(t)
	recs := zipfRecords(23, 3000, 150)

	plainSvc, plainSt, plainAlerts := runCachedService(t, tc, recs, -1, nil)
	cachedSvc, cachedSt, cachedAlerts := runCachedService(t, tc, recs, 4, NewClassifyCache(4, 4096))

	wantCl, wantAc := plainSvc.Counts()
	gotCl, gotAc := cachedSvc.Counts()
	if gotCl != wantCl || gotAc != wantAc {
		t.Errorf("cached counts = (%d, %d), uncached = (%d, %d)", gotCl, gotAc, wantCl, wantAc)
	}
	if cachedAlerts != plainAlerts {
		t.Errorf("cached alerts = %d, uncached = %d", cachedAlerts, plainAlerts)
	}
	if cachedSt.Count() != plainSt.Count() {
		t.Errorf("cached store count = %d, uncached = %d", cachedSt.Count(), plainSt.Count())
	}
	want := map[string]int{}
	for _, b := range plainSt.Terms(store.MatchAll{}, "category", 0) {
		want[b.Value] = b.Count
	}
	got := map[string]int{}
	for _, b := range cachedSt.Terms(store.MatchAll{}, "category", 0) {
		got[b.Value] = b.Count
	}
	if len(got) != len(want) {
		t.Fatalf("category sets differ: got %v, want %v", got, want)
	}
	for cat, n := range want {
		if got[cat] != n {
			t.Errorf("category %q: got %d docs, want %d", cat, got[cat], n)
		}
	}
	// On this workload the cache must actually be doing the work: 3000
	// records over <=150 distinct texts means the vast majority hit.
	rawHits, maskedHits, misses := cachedSvc.CacheStats()
	if hits := rawHits + maskedHits; hits < misses {
		t.Errorf("cache hits = %d, misses = %d on a Zipf workload", hits, misses)
	}
}

// TestCachedClassifyZeroAllocs pins the headline property: once the cache
// and scratch pool are warm, classifying a repeated message allocates
// nothing. AllocsPerRun is meaningless under the race detector, so the
// test skips there (CI enforces it in a separate non-race step).
func TestCachedClassifyZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun not meaningful under -race")
	}
	tc := trainSmall(t)
	svc := &Service{Classifier: tc, Cache: NewClassifyCache(2, 1024), Workers: -1}
	recs := streamRecords(9, 32)
	// Warm: initMetrics, scratch pool, both cache levels.
	if err := svc.Write(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := svc.Write(context.Background(), recs); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("cached serial Write allocates %.1f per run, want 0", allocs)
	}
}
