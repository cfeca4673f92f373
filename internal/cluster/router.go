package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"hetsyslog/internal/collector"
	"hetsyslog/internal/obs"
	"hetsyslog/internal/resilience"
	"hetsyslog/internal/store"
)

// Router is the cluster ingest sink: it partitions documents by
// (hostname, time slice), stamps the partition id into PartitionField,
// and delivers each document to its partition's Replication owner nodes
// over the store's bulk HTTP endpoint. Each node sits behind its own
// circuit breaker and (optionally) disk spool, so one dead node degrades
// to spool-and-replay for its share while the other replicas keep
// accepting — acknowledged records are never lost at Replication >= 2.
//
// Router implements collector.Sink (raw pipeline records, as in
// cmd/tivan) and core.DocIndexer (classified documents, as in
// cmd/collector). Write/IndexBatch return nil when every record reached
// at least one durable place (a node or a spool); they error only when
// some record achieved no durable placement at all, handing the batch
// back to the pipeline's retries (redelivery may then duplicate records
// on nodes that had accepted — duplicates are preferred to loss,
// matching the pipeline's contract).
type Router struct {
	cfg   Config
	ring  *ring
	nodes []*routerNode
	// gen is the shared ingest generation (nil-safe): bumped whenever
	// documents actually reach a node, so a coordinator's query cache on
	// the same front invalidates exactly when results can change.
	gen *Generation

	replayCancel context.CancelFunc
	replayWG     sync.WaitGroup
	startOnce    sync.Once
	closeOnce    sync.Once

	writeLat     *obs.Histogram
	payloadBytes *obs.Histogram
}

// routerNode is one store node's delivery state.
type routerNode struct {
	url     string
	client  *NodeClient
	breaker *resilience.Breaker
	spool   *resilience.Spool

	delivered *obs.Counter
	spooled   *obs.Counter
	replayed  *obs.Counter
	evicted   *obs.Counter
	lost      *obs.Counter
}

// NewRouter validates cfg, opens the per-node spools, and registers the
// router's metrics (per-node breaker state and delivery counters, route
// write latency) into reg (nil = standalone metrics, still counted).
// Call Start to launch the spool replayers and Close to drain and stop.
func NewRouter(cfg Config, reg *obs.Registry) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rt := &Router{cfg: cfg, ring: newRing(cfg), gen: cfg.Gen}
	rt.writeLat = reg.Histogram("cluster_route_write_seconds",
		"router batch fan-out latency per sink write", obs.LatencyBuckets)
	rt.payloadBytes = reg.Histogram("cluster_codec_payload_bytes",
		"per-node /index/batch payload size", obs.ByteBuckets)
	// One tuned transport spans every node so concurrent fan-out reuses
	// keep-alive connections instead of re-dialing per batch.
	httpc := newHTTPClient(cfg.HTTPTimeout)
	for i, url := range cfg.Nodes {
		nd := &routerNode{
			url:    url,
			client: &NodeClient{BaseURL: url, HTTP: httpc},
			breaker: resilience.NewBreaker(resilience.BreakerConfig{
				FailureThreshold: cfg.BreakerThreshold,
				InitialBackoff:   cfg.RetryBackoff,
				MaxBackoff:       cfg.MaxRetryBackoff,
				Seed:             int64(i) + 1,
			}),
			delivered: reg.Counter(nodeMetric("cluster_node_delivered_total", i),
				"records delivered to each node (live writes)"),
			spooled: reg.Counter(nodeMetric("cluster_node_spooled_total", i),
				"records diverted to each node's disk spool"),
			replayed: reg.Counter(nodeMetric("cluster_node_replayed_total", i),
				"records replayed from each node's spool after recovery"),
			evicted: reg.Counter(nodeMetric("cluster_node_evicted_total", i),
				"spooled records evicted under each node's spool byte bound"),
			lost: reg.Counter(nodeMetric("cluster_node_lost_total", i),
				"records with no durable placement on this node (write failed, no spool)"),
		}
		if cfg.SpoolDir != "" {
			spool, err := resilience.OpenSpool(resilience.SpoolConfig{
				Dir:      filepath.Join(cfg.SpoolDir, fmt.Sprintf("node-%d", i)),
				MaxBytes: cfg.SpoolMaxBytes,
			})
			if err != nil {
				return nil, err
			}
			nd.spool = spool
			// Frames a previous process left behind enter this router's
			// books as spooled, so Spooled - SpoolRecords == Replayed +
			// Evicted (+ rejected frames, counted Lost) spans restarts.
			nd.spooled.Add(spool.Records())
		}
		reg.GaugeFunc(nodeMetric("cluster_node_breaker_state", i),
			"per-node circuit breaker state (0 closed, 1 half-open, 2 open)",
			func() int64 { return int64(nd.breaker.State()) })
		if nd.spool != nil {
			reg.GaugeFunc(nodeMetric("cluster_node_spool_records", i),
				"records waiting in each node's spool",
				func() int64 { return nd.spool.Records() })
		}
		rt.nodes = append(rt.nodes, nd)
	}
	return rt, nil
}

// nodeMetric renders a per-node metric name with the node index label.
func nodeMetric(name string, node int) string {
	return fmt.Sprintf(`%s{node="%d"}`, name, node)
}

// Start launches the per-node spool replayers. It is a no-op without
// spools and safe to call once; ctx only scopes the background replay
// loops (Close performs a final drain regardless).
func (rt *Router) Start(ctx context.Context) {
	rt.startOnce.Do(func() {
		rctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		rt.replayCancel = cancel
		for i := range rt.nodes {
			if rt.nodes[i].spool == nil {
				continue
			}
			rt.replayWG.Add(1)
			go func(n int) {
				defer rt.replayWG.Done()
				rt.replayLoop(rctx, n)
			}(i)
		}
	})
}

// Close stops the replayers, attempts one final drain of every spool
// into whichever nodes will still take writes, and closes the spools.
// Whatever could not drain stays on disk for the next process.
func (rt *Router) Close() error {
	var err error
	rt.closeOnce.Do(func() {
		if rt.replayCancel != nil {
			rt.replayCancel()
		}
		rt.replayWG.Wait()
		for i, nd := range rt.nodes {
			if nd.spool == nil {
				continue
			}
			rt.replayDrain(context.Background(), i)
			if cerr := nd.spool.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// Write implements collector.Sink: pipeline records are converted to
// store documents and routed. The batch slice itself is not retained.
func (rt *Router) Write(ctx context.Context, batch []collector.Record) error {
	docs := make([]store.Doc, 0, len(batch))
	for _, r := range batch {
		docs = append(docs, collector.RecordToDoc(r))
	}
	return rt.IndexBatch(ctx, docs)
}

// encodedBatch is one batch's shared binary encoding: every doc encoded
// exactly once into buf, with off[i]:off[i+1] spanning doc i. Per-node
// payloads are assembled by copying the relevant spans after a header —
// a memcpy per replica instead of a re-marshal per replica. A node's
// payload is the one form its share of the batch ever takes: the body
// POSTed to it, and byte for byte the frame spooled for it.
type encodedBatch struct {
	buf []byte
	off []int
}

// encPool recycles encodedBatch values (and their buffers) across
// IndexBatch calls; payloadPool recycles the per-node wire buffers.
var (
	encPool     = sync.Pool{New: func() any { return new(encodedBatch) }}
	payloadPool = sync.Pool{New: func() any { return new([]byte) }}
)

// encodeBatch encodes every doc once into a pooled buffer.
func encodeBatch(docs []store.Doc) *encodedBatch {
	enc := encPool.Get().(*encodedBatch)
	enc.buf = enc.buf[:0]
	enc.off = append(enc.off[:0], 0)
	for i := range docs {
		enc.buf = store.AppendDoc(enc.buf, &docs[i])
		enc.off = append(enc.off, len(enc.buf))
	}
	return enc
}

// payload assembles the binary wire payload for one node's doc subset.
func (enc *encodedBatch) payload(dst []byte, idxs []int) []byte {
	dst = store.AppendDocsHeader(dst[:0], len(idxs))
	for _, i := range idxs {
		dst = append(dst, enc.buf[enc.off[i]:enc.off[i+1]]...)
	}
	return dst
}

func (enc *encodedBatch) release() { encPool.Put(enc) }

// IndexBatch implements core.DocIndexer: it stamps each document's
// partition into PartitionField (mutating docs[i].Fields), encodes the
// batch once, and fans per-node payloads out concurrently — one goroutine
// per replica node, assembled from the shared doc spans — spooling each
// dead node's share.
func (rt *Router) IndexBatch(ctx context.Context, docs []store.Doc) error {
	if len(docs) == 0 {
		return nil
	}
	start := time.Now()
	perNode := make([][]int, len(rt.nodes))
	for i := range docs {
		host, _ := docs[i].Fields.Get("hostname")
		p := rt.ring.partition(host, docs[i].Time)
		docs[i].Fields = docs[i].Fields.Set(PartitionField, strconv.Itoa(p))
		for _, n := range rt.ring.replicas(p, rt.cfg.Replication) {
			perNode[n] = append(perNode[n], i)
		}
	}
	enc := encodeBatch(docs)
	// Concurrent fan-out: each replica node's delivery (HTTP round-trip
	// or spool append) proceeds independently, so the batch costs one
	// slowest-node RTT instead of the sum over replicas.
	ok := make([]bool, len(rt.nodes))
	var wg sync.WaitGroup
	for n, idxs := range perNode {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(n int, idxs []int) {
			defer wg.Done()
			ok[n] = rt.deliverOrSpool(ctx, n, enc, idxs)
		}(n, idxs)
	}
	wg.Wait()
	enc.release()
	delivered := false
	placed := make([]bool, len(docs))
	for n, idxs := range perNode {
		if !ok[n] {
			continue
		}
		delivered = true
		for _, i := range idxs {
			placed[i] = true
		}
	}
	if delivered {
		// Node-visible data may have changed: retire cached query results.
		rt.gen.Bump()
	}
	rt.writeLat.ObserveDuration(time.Since(start))
	unplaced := 0
	for _, p := range placed {
		if !p {
			unplaced++
		}
	}
	if unplaced > 0 {
		return fmt.Errorf("cluster: %d of %d records achieved no durable placement (all replicas down, no spool)",
			unplaced, len(docs))
	}
	return nil
}

// deliverOrSpool builds node n's payload for the docs at idxs once, tries
// it as a live write behind the node's breaker, and otherwise appends the
// same bytes to the node's spool. It reports whether the docs reached a
// durable place.
func (rt *Router) deliverOrSpool(ctx context.Context, n int, enc *encodedBatch, idxs []int) bool {
	nd := rt.nodes[n]
	buf := payloadPool.Get().(*[]byte)
	defer payloadPool.Put(buf)
	*buf = enc.payload(*buf, idxs)
	if nd.breaker.Allow() {
		rt.payloadBytes.Observe(float64(len(*buf)))
		if err := nd.client.IndexBatchPayload(ctx, *buf); err == nil {
			nd.breaker.Success()
			nd.delivered.Add(int64(len(idxs)))
			return true
		}
		nd.breaker.Failure()
	}
	if nd.spool != nil {
		evicted, err := nd.spool.Append(*buf, len(idxs))
		if evicted > 0 {
			nd.evicted.Add(evicted)
		}
		if err == nil {
			nd.spooled.Add(int64(len(idxs)))
			return true
		}
	}
	nd.lost.Add(int64(len(idxs)))
	return false
}

// replayLoop polls node n's spool, draining it whenever the node's
// breaker admits writes again.
func (rt *Router) replayLoop(ctx context.Context, n int) {
	tick := time.NewTicker(rt.cfg.ReplayInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			rt.replayDrain(ctx, n)
		}
	}
}

// replayDrain replays node n's spooled frames oldest-first, each POSTed
// exactly as spooled, while the breaker admits writes and they succeed.
// A frame the node refuses (corrupt, or spooled in another format by an
// older build) is dropped and counted lost rather than poisoning replay;
// the refusal is a node reply, not a node failure, so the breaker is not
// charged for it.
func (rt *Router) replayDrain(ctx context.Context, n int) {
	nd := rt.nodes[n]
	for ctx.Err() == nil {
		payload, cnt, tok, ok, err := nd.spool.Peek()
		if err != nil || !ok {
			return
		}
		if !nd.breaker.Allow() {
			return
		}
		err = nd.client.IndexBatchPayload(ctx, payload)
		if err != nil && !rejected(err) {
			nd.breaker.Failure()
			return
		}
		nd.breaker.Success()
		if err != nil {
			if nd.spool.Pop(tok) {
				nd.lost.Add(int64(cnt))
			}
			continue
		}
		// Count before publishing: a reader that sees the replayed docs
		// (through a fresh generation) or the shorter spool must already
		// see the counter that describes them.
		nd.replayed.Add(int64(cnt))
		// Replayed docs just became queryable on the node: invalidate
		// cached query results, same as a live delivery.
		rt.gen.Bump()
		if !nd.spool.Pop(tok) {
			// The frame was evicted while its write was in flight, and
			// Append billed it as evicted. It was in fact delivered:
			// reclassify it as replayed only.
			nd.evicted.Add(-int64(cnt))
		}
	}
}

// NodeStats is one node's delivery counters.
type NodeStats struct {
	URL          string `json:"url"`
	Breaker      string `json:"breaker"`
	Delivered    int64  `json:"delivered"`
	Spooled      int64  `json:"spooled"`
	Replayed     int64  `json:"replayed"`
	Evicted      int64  `json:"evicted"`
	Lost         int64  `json:"lost"`
	SpoolRecords int64  `json:"spool_records"`
}

// Stats snapshots every node's delivery counters.
func (rt *Router) Stats() []NodeStats {
	out := make([]NodeStats, len(rt.nodes))
	for i, nd := range rt.nodes {
		out[i] = NodeStats{
			URL:       nd.url,
			Breaker:   nd.breaker.State().String(),
			Delivered: nd.delivered.Value(),
			Spooled:   nd.spooled.Value(),
			Replayed:  nd.replayed.Value(),
			Evicted:   nd.evicted.Value(),
			Lost:      nd.lost.Value(),
		}
		if nd.spool != nil {
			out[i].SpoolRecords = nd.spool.Records()
		}
	}
	return out
}
