package core

import (
	"context"
	"sync"
	"testing"

	"hetsyslog/internal/collector"
	"hetsyslog/internal/loggen"
	"hetsyslog/internal/monitor"
	"hetsyslog/internal/store"
)

// streamRecords samples n records from a fresh generator with the given
// seed, so serial and parallel runs see byte-identical traffic.
func streamRecords(seed int64, n int) []collector.Record {
	g := loggen.NewGenerator(seed)
	recs := make([]collector.Record, n)
	for i := range recs {
		ex := g.Example()
		recs[i] = collector.Record{Tag: "syslog", Time: ex.Time, Msg: ex.Message()}
	}
	return recs
}

// runService pushes the stream through a pipeline terminating in a
// Service configured with the given worker counts and returns the
// service plus its store.
func runService(t *testing.T, tc *TextClassifier, recs []collector.Record, workers, flushWorkers int) (*Service, *store.Store) {
	t.Helper()
	st := store.New(4)
	var mu sync.Mutex
	sent := 0
	svc := &Service{
		Classifier: tc,
		Store:      st,
		Workers:    workers,
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
		Config: &collector.Config{BatchSize: 32, FlushWorkers: flushWorkers},
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
	s := p.Stats()
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped {
		t.Errorf("pipeline stats invariant broken: %+v", s)
	}
	return svc, st
}

// TestServiceParallelMatchesSerial drives identical traffic through the
// serial path, the worker-pool path, and the worker-pool path behind a
// sharded flusher, and requires order-independent outcomes — classified
// and actionable counts, store doc totals, and per-category doc counts —
// to match exactly. Run under -race this is also the concurrency audit
// of the whole inference path.
func TestServiceParallelMatchesSerial(t *testing.T) {
	c := smallCorpus(t, 2000)
	model, _ := NewModel("Complement Naive Bayes")
	tc, err := Train(model, c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	recs := streamRecords(42, n)

	serialSvc, serialSt := runService(t, tc, recs, -1, 1)
	parSvc, parSt := runService(t, tc, recs, 4, 1)
	shardedSvc, shardedSt := runService(t, tc, recs, 4, 4)

	wantClassified, wantActionable := serialSvc.Counts()
	if wantClassified != n {
		t.Fatalf("serial classified = %d, want %d", wantClassified, n)
	}
	for name, svc := range map[string]*Service{"workers=4": parSvc, "workers=4 flushers=4": shardedSvc} {
		cl, ac := svc.Counts()
		if cl != wantClassified || ac != wantActionable {
			t.Errorf("%s counts = (%d, %d), serial = (%d, %d)", name, cl, ac, wantClassified, wantActionable)
		}
	}
	for name, st := range map[string]*store.Store{"workers=4": parSt, "workers=4 flushers=4": shardedSt} {
		if st.Count() != serialSt.Count() {
			t.Errorf("%s store count = %d, serial = %d", name, st.Count(), serialSt.Count())
		}
	}

	// Per-category doc totals must agree too: same records, same fitted
	// model, so every record gets the same label regardless of scheduling.
	want := map[string]int{}
	for _, b := range serialSt.Terms(store.MatchAll{}, "category", 0) {
		want[b.Value] = b.Count
	}
	for _, st := range []*store.Store{parSt, shardedSt} {
		got := map[string]int{}
		for _, b := range st.Terms(store.MatchAll{}, "category", 0) {
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
	}
}

// TestServiceConcurrentWrites calls Write from many goroutines at once —
// the FlushWorkers > 1 contract — and checks totals.
func TestServiceConcurrentWrites(t *testing.T) {
	c := smallCorpus(t, 2000)
	model, _ := NewModel("Complement Naive Bayes")
	tc, err := Train(model, c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(4)
	svc := &Service{Classifier: tc, Store: st, Workers: 2}
	recs := streamRecords(7, 800)

	var wg sync.WaitGroup
	const writers = 8
	per := len(recs) / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(batch []collector.Record) {
			defer wg.Done()
			if err := svc.Write(context.Background(), batch); err != nil {
				t.Error(err)
			}
		}(recs[w*per : (w+1)*per])
	}
	wg.Wait()
	if cl, _ := svc.Counts(); cl != int64(len(recs)) {
		t.Errorf("classified = %d, want %d", cl, len(recs))
	}
	if st.Count() != len(recs) {
		t.Errorf("store count = %d, want %d", st.Count(), len(recs))
	}
}

// TestServiceWorkerDefaults exercises the Workers knob edge cases: zero
// (GOMAXPROCS default), negative (forced serial), and batches smaller
// than the parallel threshold.
func TestServiceWorkerDefaults(t *testing.T) {
	c := smallCorpus(t, 1500)
	model, _ := NewModel("Complement Naive Bayes")
	tc, err := Train(model, c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	recs := streamRecords(11, 100)
	for _, workers := range []int{0, -1, 1, 3, 64} {
		svc := &Service{Classifier: tc, Workers: workers}
		// Small batch (below minParallelBatch) then a large one.
		if err := svc.Write(context.Background(), recs[:3]); err != nil {
			t.Fatal(err)
		}
		if err := svc.Write(context.Background(), recs[3:]); err != nil {
			t.Fatal(err)
		}
		if cl, _ := svc.Counts(); cl != int64(len(recs)) {
			t.Errorf("workers=%d: classified = %d, want %d", workers, cl, len(recs))
		}
	}
}
