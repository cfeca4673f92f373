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
	"hetsyslog/internal/syslog"
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
// distinct raw messages from one template family share a masked entry, a
// full miss stores its text in the raw level at once, and a masked hit
// promotes its text into the raw level only on the text's second sight.
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
	// The miss stored msgA; msgB, seen once, is not in the raw level yet.
	if raw, masked := c.Entries(); raw != 1 || masked != 1 {
		t.Errorf("after a miss and a masked hit: %d raw and %d masked entries, want 1 and 1", raw, masked)
	}
	if _, outcome = tc.PredictCached(msgA, c, &sc); outcome != CacheHitRaw {
		t.Errorf("repeat of the missed text: outcome = %v, want raw hit", outcome)
	}
	// msgB's second sight is a masked hit that promotes it; its third is a
	// raw hit.
	if _, outcome = tc.PredictCached(msgB, c, &sc); outcome != CacheHitMasked {
		t.Errorf("second sight outcome = %v, want masked hit", outcome)
	}
	if _, outcome = tc.PredictCached(msgB, c, &sc); outcome != CacheHitRaw {
		t.Errorf("third sight outcome = %v, want raw hit", outcome)
	}
	if raw, masked := c.Entries(); raw != 2 || masked != 1 {
		t.Errorf("after the promotion: %d raw and %d masked entries, want 2 and 1", raw, masked)
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

// TestServiceCacheMetrics checks the counters, the entry gauges and the
// hit-ratio gauge against three passes over the same distinct texts: the
// first misses once per template and answers the rest from the masked
// level, the second finds the missed texts in the raw level and promotes
// the others, the third is all raw hits.
func TestServiceCacheMetrics(t *testing.T) {
	tc := trainSmall(t)
	reg := obs.NewRegistry()
	svc := &Service{Classifier: tc, Cache: NewClassifyCache(2, 256), Metrics: reg, Workers: -1}
	var recs []collector.Record
	distinct := map[string]bool{}
	for _, r := range streamRecords(3, 96) {
		if !distinct[r.Msg.Content] {
			distinct[r.Msg.Content] = true
			recs = append(recs, r)
		}
	}
	n := int64(len(recs))
	pass := func() (rawHits, maskedHits, misses int64) {
		t.Helper()
		if err := svc.Write(context.Background(), recs); err != nil {
			t.Fatal(err)
		}
		return svc.CacheStats()
	}
	raw1, masked1, miss1 := pass()
	if raw1 != 0 || masked1+miss1 != n || masked1 == 0 || miss1 == 0 {
		t.Fatalf("first pass over %d distinct texts: %d raw, %d masked, %d misses", n, raw1, masked1, miss1)
	}
	if raw, masked := svc.Cache.Entries(); int64(raw) != miss1 || int64(masked) != miss1 {
		t.Errorf("after the first pass: %d raw and %d masked entries, want %d each (one per miss)", raw, masked, miss1)
	}
	if raw2, masked2, miss2 := pass(); raw2 != miss1 || masked2 != 2*masked1 || miss2 != miss1 {
		t.Errorf("second pass: totals %d raw, %d masked, %d misses; want %d, %d, %d", raw2, masked2, miss2, miss1, 2*masked1, miss1)
	}
	if raw3, masked3, miss3 := pass(); raw3 != miss1+n || masked3 != 2*masked1 || miss3 != miss1 {
		t.Errorf("third pass: totals %d raw, %d masked, %d misses; want %d, %d, %d", raw3, masked3, miss3, miss1+n, 2*masked1, miss1)
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
		fmt.Sprintf(`service_cache_entries{level="raw"} %d`, n),
		fmt.Sprintf(`service_cache_entries{level="masked"} %d`, miss1),
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

// templatedTexts returns n distinct texts drawn from the generator's
// templates, each made unique by a job number — the benchmark preload's
// shape: every template repeats, no text does.
func templatedTexts(seed int64, n int) []string {
	g := loggen.NewGenerator(seed)
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf("%s job=%d", g.Example().Text, i)
	}
	return texts
}

// TestTemplatedStreamKeepsNoRepeats runs 20 000 distinct templated texts
// through a cached service into a store. Nothing repeats but the
// templates, so the raw level holds exactly the texts that missed (each the
// first of its shape) and the store's body memo holds nothing: neither
// cache keeps a text it saw once.
func TestTemplatedStreamKeepsNoRepeats(t *testing.T) {
	tc := trainSmall(t)
	st := store.New(4)
	svc := &Service{Classifier: tc, Store: st, Cache: NewClassifyCache(0, 0)}
	texts := templatedTexts(41, 20_000)
	batch := make([]collector.Record, 0, 256)
	for i, text := range texts {
		batch = append(batch, collector.Record{Tag: "syslog", Msg: &syslog.Message{Hostname: "cn001", Content: text}})
		if len(batch) == cap(batch) || i == len(texts)-1 {
			if err := svc.Write(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	rawHits, maskedHits, misses := svc.CacheStats()
	if rawHits != 0 || maskedHits+misses != int64(len(texts)) || maskedHits < 4*misses {
		t.Fatalf("outcomes over %d distinct templated texts: %d raw, %d masked, %d misses", len(texts), rawHits, maskedHits, misses)
	}
	if raw, _ := svc.Cache.Entries(); int64(raw) != misses {
		t.Errorf("raw level holds %d texts after %d misses: %d texts seen once were promoted", raw, misses, int64(raw)-misses)
	}
	if s := st.Stats(); s.Docs != len(texts) || s.BodyMemoEntries != 0 {
		t.Errorf("store holds %d documents and %d memoized bodies, want %d and 0", s.Docs, s.BodyMemoEntries, len(texts))
	}
}

// TestExactRepeatRawOnThirdSight: a text the masked level answers is
// promoted on its second sight, so whatever its first outcome, an exact
// text seen twice is a raw hit the third time.
func TestExactRepeatRawOnThirdSight(t *testing.T) {
	tc := trainSmall(t)
	c := NewClassifyCache(0, 0)
	var sc ClassifyScratch
	texts := templatedTexts(43, 500)
	first := make([]CacheOutcome, len(texts))
	for i, text := range texts {
		_, first[i] = tc.PredictCached(text, c, &sc)
	}
	for i, text := range texts {
		want := CacheHitMasked // promoted now, not before
		if first[i] == CacheMiss {
			want = CacheHitRaw // a miss stores its text at once
		}
		if _, got := tc.PredictCached(text, c, &sc); got != want {
			t.Fatalf("text %d (first outcome %v): second sight %v, want %v", i, first[i], got, want)
		}
	}
	for i, text := range texts {
		if _, got := tc.PredictCached(text, c, &sc); got != CacheHitRaw {
			t.Fatalf("text %d: third sight %v, want a raw hit", i, got)
		}
	}
}

// TestZipfRawShareFloor guards the traffic shape the benchmark's
// ingest-zipf workload requires of the cache: exact repeats drawn Zipf
// (s = 1.2) over 4096 texts, classified through a fresh cache, are answered
// by the raw level at least 90 % of the time although each text has to be
// seen twice before it is admitted there.
func TestZipfRawShareFloor(t *testing.T) {
	tc := trainSmall(t)
	c := NewClassifyCache(0, 0)
	var sc ClassifyScratch
	exs := loggen.NewGenerator(47).ZipfExamples(60_000, 4096, 1.2)
	raw := 0
	for _, ex := range exs {
		if _, outcome := tc.PredictCached(ex.Text, c, &sc); outcome == CacheHitRaw {
			raw++
		}
	}
	share := float64(raw) / float64(len(exs))
	t.Logf("raw share %.4f over %d Zipf draws", share, len(exs))
	if share < 0.9 {
		t.Errorf("raw share %.4f over %d Zipf draws, want >= 0.9", share, len(exs))
	}
}
