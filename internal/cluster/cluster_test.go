package cluster

// Cluster chaos suite. Test names deliberately contain Cluster or
// ScatterGather so CI's focused gate
// (`go test -run 'Cluster|ScatterGather' ./internal/...`) runs exactly
// these, with and without -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsyslog/internal/collector"
	"hetsyslog/internal/resilience"
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

// TestClusterChaosNodeDeathBinaryCodecCacheExact is the chaos variant
// with the coordinator query cache live: queries run mid-ingest
// (populating the cache), and a node dies mid-ingest at replication 2.
// The cache must never serve a stale result across the failover re-plan —
// every post-ingest answer is exact — zero acknowledged records may be
// lost, and the dead node's share waits in its spool as binary wire
// payloads.
func TestClusterChaosNodeDeathBinaryCodecCacheExact(t *testing.T) {
	nodes, urls := newTestNodes(t, 3)
	cfg := fastClusterCfg(urls, t.TempDir())
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
	// The dead node's spool holds wire payloads: its head frame is a doc
	// batch the node could take as-is once it returns.
	frame, _, _, ok, err := rt.nodes[1].spool.Peek()
	if err != nil || !ok {
		t.Fatalf("dead node's spool is empty (ok=%v, err=%v)", ok, err)
	}
	if _, err := store.DecodeDocs(frame, nil); err != nil {
		t.Errorf("spooled frame is not a wire payload: %v", err)
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

// TestClusterSpoolReplayByteExact: a node's spooled share is the exact
// wire payload it would have received live, and replay sends those bytes
// unmodified — so a record whose body and one field value are not valid
// UTF-8 reads back byte-identical from the replica that took it live and
// from the one that took it by replay.
func TestClusterSpoolReplayByteExact(t *testing.T) {
	const badBody, badValue = "bad \xff\xfe byte", "k\xc3\x28ernel"
	var broken atomic.Bool
	broken.Store(true)
	var mu sync.Mutex
	accepted := make([][][]byte, 2) // /index/batch bodies each node served
	stores := []*store.Store{store.New(2), store.New(2)}
	urls := make([]string, 2)
	for i, st := range stores {
		h := st.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 1 && broken.Load() {
				http.Error(w, "node down", http.StatusServiceUnavailable)
				return
			}
			if r.URL.Path == "/index/batch" {
				body, _ := io.ReadAll(r.Body)
				mu.Lock()
				accepted[i] = append(accepted[i], body)
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}

	cfg := fastClusterCfg(urls, t.TempDir()) // replication 2 of 2: both nodes hold every doc
	rt, err := NewRouter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	defer rt.Close()

	ts := time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	docs := []store.Doc{
		{Time: ts, Fields: store.F("hostname", "cn001", "app", badValue), Body: badBody},
		{Time: ts, Fields: store.F("hostname", "cn002", "app", "sshd"), Body: "session opened"},
	}
	if err := rt.IndexBatch(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	// Node 1's share sits in its spool as the very payload node 0 took
	// live (both nodes hold the same docs in the same order).
	frame, _, _, ok, err := rt.nodes[1].spool.Peek()
	if err != nil || !ok {
		t.Fatalf("node 1's share never reached its spool (ok=%v, err=%v)", ok, err)
	}
	mu.Lock()
	live := accepted[0]
	mu.Unlock()
	if len(live) != 1 || !bytes.Equal(frame, live[0]) {
		t.Errorf("spool frame (%d bytes) is not the wire payload node 0 received (%d bodies)", len(frame), len(live))
	}

	broken.Store(false)
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if ns := rt.Stats()[1]; ns.SpoolRecords == 0 && ns.Replayed == int64(len(docs)) {
			break
		}
	}
	if ns := rt.Stats()[1]; ns.SpoolRecords != 0 || ns.Replayed != int64(len(docs)) || ns.Lost != 0 {
		t.Fatalf("replay did not drain: %+v", ns)
	}
	mu.Lock()
	replayed := accepted[1]
	mu.Unlock()
	if len(replayed) != 1 || !bytes.Equal(replayed[0], frame) {
		t.Errorf("recovered node received %d bodies, want exactly the %d-byte spooled frame", len(replayed), len(frame))
	}

	for i, st := range stores {
		hits := st.Search(store.SearchRequest{Query: store.Term{Field: "hostname", Value: "cn001"}, Size: -1})
		if len(hits) != 1 {
			t.Fatalf("node %d holds %d copies of the record, want 1", i, len(hits))
		}
		if d := hits[0].Doc; d.Body != badBody || d.Fields.Value("app") != badValue {
			t.Errorf("node %d reads back body %q app %q, want %q %q", i, d.Body, d.Fields.Value("app"), badBody, badValue)
		}
	}
}

// TestClusterReadsByteExact: the coordinator's reads answer the bytes the
// router stored. A hostname and a body that are not valid UTF-8 travel
// byte-exact through the doc codec into the nodes; a read hop through
// encoding/json rewrote them to U+FFFD on the way back, so Count of the
// stored hostname found nothing, Terms returned "cn\uFFFD01" and Search the
// rewritten body. The cache is off: every read crosses the hop.
func TestClusterReadsByteExact(t *testing.T) {
	const host, body = "cn\xff01", "temp \xfe above threshold"
	_, urls := newTestNodes(t, 3)
	cfg := fastClusterCfg(urls, "")
	cfg.QueryCacheSize = -1
	rt, err := NewRouter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	docs := []store.Doc{
		{Time: sgBase, Fields: store.F("hostname", host, "app", "kernel"), Body: body},
		{Time: sgBase.Add(time.Second), Fields: store.F("hostname", "cn002", "app", "kernel"), Body: "fan ok"},
	}
	if err := rt.IndexBatch(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	co, err := NewCoordinator(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := store.Term{Field: "hostname", Value: host}
	if n, err := co.Count(ctx, q); err != nil || n != 1 {
		t.Errorf("Count(hostname %q) = %d, %v; want 1", host, n, err)
	}
	terms, err := co.Terms(ctx, nil, "hostname", 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []store.TermBucket{{Value: "cn002", Count: 1}, {Value: host, Count: 1}}; !reflect.DeepEqual(terms, want) {
		t.Errorf("Terms(hostname) = %#v, want %#v", terms, want)
	}
	hits, err := co.Search(ctx, q, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Doc.Body != body || hits[0].Doc.Fields.Value("hostname") != host {
		t.Errorf("Search(hostname %q) = %d hits %#v, want one with body %q", host, len(hits), hits, body)
	}
}

// TestClusterSpoolRejectedFrames: a spooled frame the node refuses — junk
// here, as a frame an older build spooled in another format would be — is
// dropped and counted lost, the frames behind it still replay, and the
// refusal is a node reply, not a node failure: the breaker never trips.
func TestClusterSpoolRejectedFrames(t *testing.T) {
	nodes, urls := newTestNodes(t, 2)
	dir := t.TempDir()
	sp, err := resilience.OpenSpool(resilience.SpoolConfig{Dir: filepath.Join(dir, "node-1")})
	if err != nil {
		t.Fatal(err)
	}
	valid := []store.Doc{
		{Time: time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC), Fields: store.F("hostname", "cn001"), Body: "after the junk"},
		{Time: time.Date(2023, 7, 1, 0, 0, 1, 0, time.UTC), Fields: store.F("hostname", "cn002"), Body: "still replayed"},
	}
	if _, err := sp.Append([]byte("not a doc batch"), 7); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Append(store.EncodeDocs(nil, valid), len(valid)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	rt, err := NewRouter(fastClusterCfg(urls, dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background())
	defer rt.Close()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if rt.Stats()[1].SpoolRecords == 0 {
			break
		}
	}
	ns := rt.Stats()[1]
	if ns.SpoolRecords != 0 || ns.Lost != 7 || ns.Replayed != int64(len(valid)) {
		t.Fatalf("node 1 stats %+v, want the junk frame's 7 lost and %d replayed", ns, len(valid))
	}
	if n := nodes[1].store.Count(); n != len(valid) {
		t.Errorf("node 1 holds %d docs, want the valid frame's %d", n, len(valid))
	}
	if ns.Breaker != "closed" || rt.nodes[1].breaker.Trips() != 0 {
		t.Errorf("breaker %s after %d trips: a refused frame was charged as a node failure",
			ns.Breaker, rt.nodes[1].breaker.Trips())
	}
}

// TestClusterFrontParity: a cluster front serves the store's query API.
// One request table runs against a single store node and against a
// coordinator over three nodes at replication 2 holding the same
// documents; each row must answer its status, and the same status and
// the same decoded body on both. Then the four reads go through the
// binary POST /read on both and must answer what the JSON routes did.
func TestClusterFrontParity(t *testing.T) {
	// Distinct timestamps leave no ties for the hit order to break by
	// per-node id; the hour between the two runs leaves empty minute
	// buckets, so a gap-filled histogram differs from the sparse one.
	corpus := func() []store.Doc {
		docs := make([]store.Doc, 60)
		for i := range docs {
			ts := sgBase.Add(time.Duration(i) * 7 * time.Second)
			if i >= 30 {
				ts = ts.Add(time.Hour)
			}
			docs[i] = store.Doc{
				Time:   ts,
				Fields: store.F("hostname", fmt.Sprintf("cn%03d", i%4), "app", []string{"sshd", "kernel", "slurmd"}[i%3]),
				Body:   fmt.Sprintf("CPU %d temperature above threshold", i),
			}
		}
		return docs
	}
	single := store.New(2)
	single.IndexBatch(corpus())
	node := httptest.NewServer(single.Handler())
	defer node.Close()

	_, urls := newTestNodes(t, 3)
	cfg := fastClusterCfg(urls, "")
	rt, err := NewRouter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.IndexBatch(context.Background(), corpus()); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	co, err := NewCoordinator(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co.Handler())
	defer front.Close()

	padded := func(n int) string {
		b := `{"query":{"match_all":{}},"interval":"1m","field":"hostname","pad":"`
		return b + strings.Repeat("x", n-len(b)-2) + `"}`
	}
	const host = `{"term":{"field":"hostname","value":"cn001"}}`
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/search", `{"query":` + host + `,"size":5}`, http.StatusOK},
		{"POST", "/search", `{"size":-1,"sort_asc":true}`, http.StatusOK},
		{"POST", "/search", `{}`, http.StatusOK},
		{"POST", "/search", `{"query":{"match":{"text":"temperature"}},"size":3}`, http.StatusOK},
		{"POST", "/search", `{"query":`, http.StatusBadRequest},
		{"POST", "/search", `{"query":{"range":{"from":"yesterday"}}}`, http.StatusBadRequest},
		{"POST", "/search", padded(store.MaxQueryBody), http.StatusOK},
		{"POST", "/search", padded(store.MaxQueryBody + 1), http.StatusRequestEntityTooLarge},
		{"POST", "/count", `{"query":` + host + `}`, http.StatusOK},
		{"POST", "/count", `{}`, http.StatusOK},
		{"POST", "/count", `[1]`, http.StatusBadRequest},
		{"POST", "/count", padded(store.MaxQueryBody + 1), http.StatusRequestEntityTooLarge},
		{"POST", "/agg/datehist", `{"interval":"1m"}`, http.StatusOK},
		{"POST", "/agg/datehist", `{"interval":"1m","sparse":false}`, http.StatusOK},
		{"POST", "/agg/datehist", `{"interval":"1m","sparse":true}`, http.StatusOK},
		{"POST", "/agg/datehist", `{"query":` + host + `,"interval":"30s","sparse":true}`, http.StatusOK},
		{"POST", "/agg/datehist", `{"interval":"fortnightly"}`, http.StatusBadRequest},
		{"POST", "/agg/datehist", `{"interval":`, http.StatusBadRequest},
		{"POST", "/agg/datehist", padded(store.MaxQueryBody + 1), http.StatusRequestEntityTooLarge},
		{"POST", "/agg/terms", `{"field":"hostname","size":2}`, http.StatusOK},
		{"POST", "/agg/terms", `{"query":` + host + `,"field":"app"}`, http.StatusOK},
		{"POST", "/agg/terms", `{"size":2}`, http.StatusBadRequest},
		{"POST", "/agg/terms", `{"field":`, http.StatusBadRequest},
		{"POST", "/agg/terms", padded(store.MaxQueryBody), http.StatusOK},
		{"POST", "/agg/terms", padded(store.MaxQueryBody + 1), http.StatusRequestEntityTooLarge},
		{"GET", "/search?q=app:sshd", "", http.StatusOK},
		{"GET", "/search?q=app:sshd+-hostname:cn000&size=3", "", http.StatusOK},
		{"GET", "/search?size=-1", "", http.StatusOK},
		{"GET", "/search?q=after:nope", "", http.StatusBadRequest},
		{"GET", "/search?q=app:sshd&size=10abc", "", http.StatusBadRequest},
		{"GET", "/search?size=1e3", "", http.StatusBadRequest},
	} {
		label := fmt.Sprintf("%s %s %.60s", tc.method, tc.path, tc.body)
		nodeStatus, nodeBody := frontAnswer(t, node.URL, tc.method, tc.path, tc.body)
		frontStatus, frontBody := frontAnswer(t, front.URL, tc.method, tc.path, tc.body)
		if nodeStatus != tc.want || frontStatus != tc.want {
			t.Errorf("%s: node %d, front %d, want %d", label, nodeStatus, frontStatus, tc.want)
		}
		if !reflect.DeepEqual(nodeBody, frontBody) {
			t.Errorf("%s: bodies differ\nnode:  %.300s\nfront: %.300s", label, fmt.Sprint(nodeBody), fmt.Sprint(frontBody))
		}
	}

	// The binary read route: each of the four reads answers the same on a
	// node and a front, and the same as the JSON route asked the same read.
	hostQ := store.Term{Field: "hostname", Value: "cn001"}
	for _, tc := range []struct {
		req        store.ReadRequest
		path, body string
	}{
		{store.ReadRequest{Op: store.ReadSearch, Query: hostQ, Size: 5}, "/search", `{"query":` + host + `,"size":5}`},
		{store.ReadRequest{Op: store.ReadSearch, Size: -1, SortAsc: true}, "/search", `{"size":-1,"sort_asc":true}`},
		{store.ReadRequest{Op: store.ReadSearch}, "/search", `{}`},
		{store.ReadRequest{Op: store.ReadCount, Query: hostQ}, "/count", `{"query":` + host + `}`},
		{store.ReadRequest{Op: store.ReadCount}, "/count", `{}`},
		{store.ReadRequest{Op: store.ReadHist, Interval: time.Minute}, "/agg/datehist", `{"interval":"1m","sparse":true}`},
		{store.ReadRequest{Op: store.ReadHist, Query: hostQ, Interval: 30 * time.Second}, "/agg/datehist", `{"query":` + host + `,"interval":"30s","sparse":true}`},
		{store.ReadRequest{Op: store.ReadTerms, Field: "hostname", Size: 2}, "/agg/terms", `{"field":"hostname","size":2}`},
		{store.ReadRequest{Op: store.ReadTerms, Query: hostQ, Field: "app"}, "/agg/terms", `{"query":` + host + `,"field":"app"}`},
	} {
		label := fmt.Sprintf("POST /read as %s %s", tc.path, tc.body)
		_, want := frontAnswer(t, node.URL, "POST", tc.path, tc.body)
		for _, base := range []string{node.URL, front.URL} {
			status, got := binaryAnswer(t, base, tc.req.Op, tc.req.Append(nil))
			if status != http.StatusOK || !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: status %d, answer\n%.300s\nwant\n%.300s", label, base, status, fmt.Sprint(got), fmt.Sprint(want))
			}
		}
	}
	good := (&store.ReadRequest{Op: store.ReadCount}).Append(nil)
	vflip := append([]byte(nil), good...)
	vflip[3] = 0x7f
	for _, tc := range []struct {
		name    string
		payload []byte
		want    int
	}{
		{"garbage", []byte("not a read"), http.StatusBadRequest},
		{"JSON", []byte(`{"query":{"match_all":{}}}`), http.StatusBadRequest},
		{"empty terms field", (&store.ReadRequest{Op: store.ReadTerms}).Append(nil), http.StatusBadRequest},
		{"foreign version", vflip, http.StatusUnsupportedMediaType},
	} {
		for _, base := range []string{node.URL, front.URL} {
			if status, _ := binaryAnswer(t, base, store.ReadCount, tc.payload); status != tc.want {
				t.Errorf("POST /read %s on %s: status %d, want %d", tc.name, base, status, tc.want)
			}
		}
	}
}

// binaryAnswer posts a binary read request and returns the status and, for
// a 200, the answer decoded and rendered as the JSON route answers that
// read, then normalized as frontAnswer normalizes it.
func binaryAnswer(t *testing.T, base string, op store.ReadOp, payload []byte) (int, any) {
	t.Helper()
	resp, err := http.Post(base+"/read", store.ReadContentType, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, string(raw)
	}
	ans, err := store.DecodeReadAnswer(op, raw)
	if err != nil {
		t.Fatalf("%s: answer does not decode: %v", base, err)
	}
	var asJSON any
	switch op {
	case store.ReadSearch:
		asJSON = store.SearchResult{Hits: ans.Hits, Total: len(ans.Hits)}
	case store.ReadCount:
		asJSON = store.CountResult{Count: ans.Count}
	case store.ReadHist:
		asJSON = ans.Buckets
	case store.ReadTerms:
		asJSON = ans.Terms
	}
	if raw, err = json.Marshal(asJSON); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, normalizeAnswer(t, raw)
}

// frontAnswer sends one request and returns its status and its decoded
// body: JSON decoded, with the hit fields placement decides — per-node
// ids and the router's partition stamp — dropped; any other body as text.
func frontAnswer(t *testing.T, base, method, path, body string) (int, any) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Content-Type") != "application/json" {
		return resp.StatusCode, string(raw)
	}
	return resp.StatusCode, normalizeAnswer(t, raw)
}

// normalizeAnswer decodes a JSON answer and drops from its hits the fields
// placement decides: per-node ids and the router's partition stamp.
func normalizeAnswer(t *testing.T, raw []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("answer %.100s: %v", raw, err)
	}
	if m, ok := v.(map[string]any); ok {
		hits, _ := m["hits"].([]any)
		for _, h := range hits {
			doc := h.(map[string]any)["doc"].(map[string]any)
			delete(doc, "id")
			delete(doc["fields"].(map[string]any), PartitionField)
		}
	}
	return v
}
