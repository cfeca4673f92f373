package cluster

// Cluster chaos suite. Test names deliberately contain Cluster or
// ScatterGather so CI's focused gate
// (`go test -run 'Cluster|ScatterGather' ./internal/...`) runs exactly
// these, with and without -race.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hetsyslog/internal/collector"
	"hetsyslog/internal/store"
	"hetsyslog/internal/syslog"
)

// testNode is one in-process store node behind a real HTTP server.
type testNode struct {
	store  *store.Store
	server *httptest.Server
}

// newTestNodes spins up n store nodes and returns them with their URLs.
func newTestNodes(t testing.TB, n int) ([]*testNode, []string) {
	t.Helper()
	nodes := make([]*testNode, n)
	urls := make([]string, n)
	for i := range nodes {
		st := store.New(2)
		srv := httptest.NewServer(st.Handler())
		t.Cleanup(srv.Close)
		nodes[i] = &testNode{store: st, server: srv}
		urls[i] = srv.URL
	}
	return nodes, urls
}

// fastClusterCfg returns aggressive-timer cluster knobs so breaker trips
// and spool replay resolve in test time.
func fastClusterCfg(urls []string, spoolDir string) Config {
	return Config{
		Nodes:            urls,
		Replication:      2,
		Partitions:       16,
		TimeSlice:        time.Hour,
		SpoolDir:         spoolDir,
		BreakerThreshold: 1,
		RetryBackoff:     time.Millisecond,
		MaxRetryBackoff:  50 * time.Millisecond,
		ReplayInterval:   5 * time.Millisecond,
		HTTPTimeout:      5 * time.Second,
		// Shared ingest generation: router bumps, coordinator cache keys on
		// it — the production wiring, so the suite exercises invalidation.
		Gen: NewGeneration(),
	}
}

func clusterRecord(host, app, content string) collector.Record {
	return collector.Record{
		Tag:  "syslog",
		Time: time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC),
		Msg: &syslog.Message{
			Facility: syslog.Daemon, Severity: syslog.Info,
			Hostname: host, AppName: app, Content: content,
			Timestamp: time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC),
		},
	}
}

// TestClusterRingPlacement pins the placement function's contracts:
// stable partitions, distinct replicas, time slices that move a host
// across partitions, and floor-divided (pre-epoch-safe) time slots.
func TestClusterRingPlacement(t *testing.T) {
	cfg := Config{
		Nodes:       []string{"http://a:1", "http://b:1", "http://c:1"},
		Partitions:  32,
		Replication: 2,
		TimeSlice:   time.Hour,
	}.withDefaults()
	r := newRing(cfg)

	now := time.Date(2023, 7, 1, 12, 30, 0, 0, time.UTC)
	for _, host := range []string{"cn001", "cn002", "login1"} {
		p := r.partition(host, now)
		if p < 0 || p >= cfg.Partitions {
			t.Fatalf("partition(%q) = %d out of range", host, p)
		}
		if p2 := r.partition(host, now.Add(time.Minute)); p2 != p {
			t.Errorf("same time slice moved %q: %d -> %d", host, p, p2)
		}
	}
	// Across many slices a host must not pin one partition forever.
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[r.partition("cn001", now.Add(time.Duration(i)*time.Hour))] = true
	}
	if len(seen) < 2 {
		t.Errorf("host pinned to one partition across 64 time slices")
	}
	// Replicas are distinct nodes.
	for p := 0; p < cfg.Partitions; p++ {
		reps := r.replicas(p, 2)
		if len(reps) != 2 || reps[0] == reps[1] {
			t.Fatalf("replicas(%d) = %v", p, reps)
		}
	}
	// Pre-epoch timestamps get stable floor-divided slots: one nanosecond
	// inside a slice must not flip the slot the way truncation would.
	if floorDiv(-1, int64(time.Hour)) != -1 || floorDiv(int64(time.Hour)-1, int64(time.Hour)) != 0 {
		t.Error("floorDiv grid wrong around zero")
	}
	old := time.Date(1969, 12, 31, 23, 30, 0, 0, time.UTC)
	if r.partition("cn001", old) != r.partition("cn001", old.Add(time.Nanosecond)) {
		t.Error("pre-epoch partition unstable within a slice")
	}
}

// TestClusterRouterCoordinatorRoundTrip is the happy path: documents
// routed with replication 2 across 3 nodes come back exactly once
// through every coordinator query shape.
func TestClusterRouterCoordinatorRoundTrip(t *testing.T) {
	nodes, urls := newTestNodes(t, 3)
	cfg := fastClusterCfg(urls, "")
	rt, err := NewRouter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const total = 480 // divisible by the 40 hosts: every terms bucket equal
	ctx := context.Background()
	var batch []collector.Record
	for i := 0; i < total; i++ {
		batch = append(batch, clusterRecord(
			fmt.Sprintf("cn%03d", i%40), "kernel", fmt.Sprintf("event %d", i)))
	}
	if err := rt.Write(ctx, batch); err != nil {
		t.Fatal(err)
	}

	// Replication 2 means exactly 2x the docs live across the nodes, and
	// every node should hold a share (16 partitions over 3 nodes).
	stored := 0
	for i, nd := range nodes {
		n := nd.store.Count()
		if n == 0 {
			t.Errorf("node %d holds no documents — placement is not spreading", i)
		}
		stored += n
	}
	if stored != 2*total {
		t.Errorf("stored copies = %d, want %d (replication 2)", stored, 2*total)
	}

	co, err := NewCoordinator(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := co.Count(ctx, nil); err != nil || n != total {
		t.Fatalf("Count = %d, %v; want %d", n, err, total)
	}
	hits, err := co.Search(ctx, nil, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, h := range hits {
		seen[h.Doc.Body]++
	}
	if len(seen) != total {
		t.Fatalf("unique hits = %d, want %d", len(seen), total)
	}
	for body, n := range seen {
		if n != 1 {
			t.Fatalf("hit %q returned %d times, want exactly once (replica double-count)", body, n)
		}
	}
	terms, err := co.Terms(ctx, nil, "hostname", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 40 {
		t.Fatalf("hostname terms = %d, want 40", len(terms))
	}
	for _, b := range terms {
		if b.Count != total/40 {
			t.Fatalf("terms bucket %+v, want count %d", b, total/40)
		}
	}
	hist, err := co.DateHistogram(ctx, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, b := range hist {
		sum += b.Count
	}
	if sum != total {
		t.Fatalf("histogram total = %d, want %d", sum, total)
	}
}

// TestClusterChaosNodeDeathZeroLoss is the acceptance chaos test: one of
// three nodes dies mid-ingest at replication 2. The pipeline must finish
// with its conservation invariant intact and nothing dropped (the dead
// node's share diverts to the router's per-node spool), and the
// coordinator must answer over the survivors with every acknowledged
// record exactly once.
func TestClusterChaosNodeDeathZeroLoss(t *testing.T) {
	nodes, urls := newTestNodes(t, 3)
	cfg := fastClusterCfg(urls, t.TempDir())
	rt, err := NewRouter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	defer rt.Close()

	p := &collector.Pipeline{Sink: rt, Config: &collector.Config{
		BatchSize:     32,
		FlushInterval: 2 * time.Millisecond,
		MaxRetries:    1,
		RetryBackoff:  time.Millisecond,
		WriteTimeout:  5 * time.Second,
	}}
	ch := make(chan collector.Record)
	p.Source = &collector.ChannelSource{Ch: ch}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()

	const total = 4000
	for i := 0; i < total; i++ {
		if i == total/2 {
			// Kill node 1 mid-ingest: in-flight and future writes to it
			// fail, trip its breaker, and divert to its spool.
			nodes[1].server.CloseClientConnections()
			nodes[1].server.Close()
		}
		ch <- clusterRecord(fmt.Sprintf("cn%03d", i%64), "slurmd", fmt.Sprintf("job %d", i))
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Pipeline-side conservation: the node death must be invisible here —
	// the router acknowledged every batch (each record reached a live
	// replica or a spool), so nothing dropped, retried into loss, or left
	// in the pipeline's own spool.
	s := p.Stats()
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped+s.Spooled {
		t.Errorf("invariant broken: Ingested (%d) != Filtered (%d) + Flushed (%d) + Dropped (%d) + Spooled (%d)",
			s.Ingested, s.Filtered, s.Flushed, s.Dropped, s.Spooled)
	}
	if s.Ingested != total || s.Flushed != total || s.Dropped != 0 || s.Spooled != 0 {
		t.Errorf("stats = %+v, want Ingested=Flushed=%d Dropped=Spooled=0", s, total)
	}

	// Router-side accounting: no record may have lost its last copy, and
	// the dead node's share must be sitting in its spool.
	var spooled int64
	for i, ns := range rt.Stats() {
		if ns.Lost != 0 {
			t.Errorf("node %d lost %d records", i, ns.Lost)
		}
		spooled += ns.SpoolRecords
	}
	if spooled == 0 {
		t.Error("dead node's share never reached its spool")
	}

	// Survivor-side exactness: the coordinator fails node 1's partitions
	// over to their other replica and still returns every acknowledged
	// record exactly once.
	co, err := NewCoordinator(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if n, err := co.Count(ctx, nil); err != nil || n != total {
		t.Fatalf("survivor Count = %d, %v; want %d", n, err, total)
	}
	hits, err := co.Search(ctx, nil, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, h := range hits {
		seen[h.Doc.Body]++
	}
	if len(seen) != total {
		t.Fatalf("survivors returned %d unique records, want %d", len(seen), total)
	}
	for body, n := range seen {
		if n != 1 {
			t.Fatalf("record %q returned %d times, want exactly once", body, n)
		}
	}
}

// TestClusterChaosNodeDeathBinaryCodecCacheExact is the PR-8 chaos
// variant: binary wire codec and the coordinator query cache are both
// live, queries run mid-ingest (populating the cache), and a node dies
// mid-ingest at replication 2. The cache must never serve a stale result
// across the failover re-plan — every post-ingest answer is exact — and
// zero acknowledged records may be lost.
func TestClusterChaosNodeDeathBinaryCodecCacheExact(t *testing.T) {
	nodes, urls := newTestNodes(t, 3)
	cfg := fastClusterCfg(urls, t.TempDir())
	cfg.Codec = CodecBinary
	rt, err := NewRouter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	defer rt.Close()
	co, err := NewCoordinator(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if co.cache == nil {
		t.Fatal("query cache should be enabled")
	}

	p := &collector.Pipeline{Sink: rt, Config: &collector.Config{
		BatchSize:     32,
		FlushInterval: 2 * time.Millisecond,
		MaxRetries:    1,
		RetryBackoff:  time.Millisecond,
		WriteTimeout:  5 * time.Second,
	}}
	ch := make(chan collector.Record)
	p.Source = &collector.ChannelSource{Ch: ch}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()

	ctx := context.Background()
	const total = 4000
	for i := 0; i < total; i++ {
		switch i {
		case total / 4:
			// Populate the cache mid-ingest, while every node is alive.
			// Whatever partial count this memoizes must be invalidated by
			// the ingest that follows, not resurrected after failover.
			if _, err := co.Count(ctx, nil); err != nil {
				t.Fatalf("mid-ingest count: %v", err)
			}
		case total / 2:
			// Kill node 1 mid-ingest: its share diverts to its spool and
			// its partitions fail over on the query side.
			nodes[1].server.CloseClientConnections()
			nodes[1].server.Close()
		}
		ch <- clusterRecord(fmt.Sprintf("cn%03d", i%64), "slurmd", fmt.Sprintf("job %d", i))
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	s := p.Stats()
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped+s.Spooled {
		t.Errorf("invariant broken: Ingested (%d) != Filtered (%d) + Flushed (%d) + Dropped (%d) + Spooled (%d)",
			s.Ingested, s.Filtered, s.Flushed, s.Dropped, s.Spooled)
	}
	if s.Ingested != total || s.Flushed != total || s.Dropped != 0 || s.Spooled != 0 {
		t.Errorf("stats = %+v, want Ingested=Flushed=%d Dropped=Spooled=0", s, total)
	}
	for i, ns := range rt.Stats() {
		if ns.Lost != 0 {
			t.Errorf("node %d lost %d records", i, ns.Lost)
		}
	}
	// The fast path must actually be the binary codec: live nodes never
	// negotiated down to JSON.
	if rt.binBatches.Value() == 0 {
		t.Error("no batches went over the binary codec")
	}
	if rt.jsonBatches.Value() != 0 {
		t.Errorf("%d batches fell back to JSON against same-build nodes", rt.jsonBatches.Value())
	}

	// Post-ingest exactness through the cache: the first count re-scatters
	// (ingest advanced the generation past the mid-ingest snapshot), the
	// second is a cache hit — and both must equal the acknowledged total.
	hitsBefore := co.cache.hits.Value()
	for round := 0; round < 2; round++ {
		if n, err := co.Count(ctx, nil); err != nil || n != total {
			t.Fatalf("post-ingest count round %d = %d, %v; want %d", round, n, err, total)
		}
	}
	if co.cache.hits.Value() != hitsBefore+1 {
		t.Errorf("second identical count missed the cache (hits %d -> %d)",
			hitsBefore, co.cache.hits.Value())
	}
	// Search (uncached) agrees with the cached count: every acknowledged
	// record exactly once across the survivors.
	hits, err := co.Search(ctx, nil, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, h := range hits {
		seen[h.Doc.Body]++
	}
	if len(seen) != total {
		t.Fatalf("survivors returned %d unique records, want %d", len(seen), total)
	}
	for body, n := range seen {
		if n != 1 {
			t.Fatalf("record %q returned %d times, want exactly once", body, n)
		}
	}
}

// TestClusterRouterNoDurablePlacementError pins the durability contract:
// with every replica down and no spool configured, Write must hand the
// batch back to the pipeline as an error instead of acking into loss.
func TestClusterRouterNoDurablePlacementError(t *testing.T) {
	nodes, urls := newTestNodes(t, 2)
	cfg := fastClusterCfg(urls, "") // no spool
	rt, err := NewRouter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, nd := range nodes {
		nd.server.CloseClientConnections()
		nd.server.Close()
	}
	err = rt.Write(context.Background(), []collector.Record{
		clusterRecord("cn001", "kernel", "doomed"),
	})
	if err == nil {
		t.Fatal("Write acked a record with no durable placement")
	}
}

// TestClusterSpoolReplayAfterRecovery: a node that refuses writes for a
// while (503s behind the same URL) receives its spooled share via the
// replayer once it recovers, and the coordinator then sees every record.
func TestClusterSpoolReplayAfterRecovery(t *testing.T) {
	st0, st1 := store.New(2), store.New(2)
	srv0 := httptest.NewServer(st0.Handler())
	t.Cleanup(srv0.Close)
	var broken atomic.Bool
	broken.Store(true)
	h1 := st1.Handler()
	srv1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			http.Error(w, "node down", http.StatusServiceUnavailable)
			return
		}
		h1.ServeHTTP(w, r)
	}))
	t.Cleanup(srv1.Close)

	cfg := fastClusterCfg([]string{srv0.URL, srv1.URL}, t.TempDir())
	cfg.Replication = 1 // every record has exactly one home: replay is load-bearing
	rt, err := NewRouter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	defer rt.Close()

	const total = 400
	ctx := context.Background()
	var batch []collector.Record
	for i := 0; i < total; i++ {
		batch = append(batch, clusterRecord(fmt.Sprintf("cn%03d", i%32), "sshd", fmt.Sprintf("session %d", i)))
	}
	if err := rt.Write(ctx, batch); err != nil {
		t.Fatal(err)
	}
	// Recover the node and wait for the replayer to drain its spool.
	broken.Store(false)
	deadline := time.Now().Add(20 * time.Second)
	co, err := NewCoordinator(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		// Counters are ordered before the effects they describe: at every
		// poll, records seen to have left node 1's spool (the effect, read
		// first) are already counted replayed, evicted or lost (read
		// second). A replayer that pops the frame before it counts fails
		// this in the window between the two.
		effect, counted := rt.Stats()[1], rt.Stats()[1]
		if left := effect.Spooled - effect.SpoolRecords; left > counted.Replayed+counted.Evicted+counted.Lost {
			t.Fatalf("%d records left the spool but only %d replayed + %d evicted + %d lost are counted",
				left, counted.Replayed, counted.Evicted, counted.Lost)
		}
		// The replayer counts a frame once its IndexBatch has returned, so
		// the documents can be counted a moment before the frame is.
		if n, err := co.Count(ctx, nil); err == nil && n == total && rt.Stats()[1].Replayed > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n, err := co.Count(ctx, nil); err != nil || n != total {
		t.Fatalf("after recovery Count = %d, %v; want %d (stats %+v)", n, err, total, rt.Stats())
	}
	for i, ns := range rt.Stats() {
		if ns.Lost != 0 {
			t.Errorf("node %d lost %d records", i, ns.Lost)
		}
		if i == 1 && ns.Replayed == 0 {
			t.Error("recovered node saw no replayed records")
		}
	}
}

// TestClusterFrontBodyLimits: the cluster front bounds its JSON query bodies
// like a store node does — store.MaxQueryBody bytes are read, more is 413.
func TestClusterFrontBodyLimits(t *testing.T) {
	_, urls := newTestNodes(t, 2)
	co, err := NewCoordinator(fastClusterCfg(urls, ""), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	body := func(n int) []byte {
		b := []byte(`{"query":{"match_all":{}},"interval":"1m","field":"hostname","pad":"`)
		b = append(b, bytes.Repeat([]byte{'x'}, n-len(b)-2)...)
		return append(b, `"}`...)
	}
	for _, tc := range []struct {
		path string
		size int
		want int
	}{
		{"/search", store.MaxQueryBody, http.StatusOK},
		{"/search", store.MaxQueryBody + 1, http.StatusRequestEntityTooLarge},
		{"/count", store.MaxQueryBody + 1, http.StatusRequestEntityTooLarge},
		{"/agg/datehist", store.MaxQueryBody + 1, http.StatusRequestEntityTooLarge},
		{"/agg/terms", store.MaxQueryBody + 1, http.StatusRequestEntityTooLarge},
		{"/agg/terms", store.MaxQueryBody, http.StatusOK},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", bytes.NewReader(body(tc.size)))
		if err != nil {
			t.Fatalf("%s with %d bytes: %v", tc.path, tc.size, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s with %d bytes: status %d, want %d", tc.path, tc.size, resp.StatusCode, tc.want)
		}
	}
}
