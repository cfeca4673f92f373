// Package collector implements the Fluentd role from the paper's
// infrastructure (§4.2): it ingests records from a source (typically the
// syslog listener), runs them through a stage chain (metadata enrichment,
// dedup, noise dropping, detection), buffers them, and flushes batches to
// a sink (typically the Tivan store) with bounded retry, backpressure and
// a circuit breaker. It keeps no disk buffer of its own: the only sink
// that can refuse a batch in a deployment is the cluster router, and the
// router spools each node's share itself (the durability Fluentd's file
// buffer provides in the paper's deployment).
package collector

import (
	"context"
	"errors"
	"sync"
	"time"

	"hetsyslog/internal/obs"
	"hetsyslog/internal/resilience"
	"hetsyslog/internal/syslog"
)

// Record is the unit flowing through the pipeline.
type Record struct {
	// Tag routes records, Fluentd-style ("syslog.cn101").
	Tag  string
	Time time.Time
	// Msg is the parsed syslog message.
	Msg *syslog.Message
	// Meta carries enrichment added by filters (rack, arch, category...).
	Meta map[string]string
}

// WithMeta returns a copy of r with key=value added to Meta. Each call
// copies the map; filters adding several keys should use WithMetas.
func (r Record) WithMeta(key, value string) Record {
	return r.WithMetas(key, value)
}

// WithMetas returns a copy of r with every key/value pair added to Meta,
// copying the map once instead of once per key — the enrichment-chain
// fast path. kv must alternate keys and values; an odd trailing key is a
// programming error and panics.
func (r Record) WithMetas(kv ...string) Record {
	if len(kv)%2 != 0 {
		panic("collector: WithMetas requires alternating key/value pairs")
	}
	meta := make(map[string]string, len(r.Meta)+len(kv)/2)
	for k, v := range r.Meta {
		meta[k] = v
	}
	for i := 0; i < len(kv); i += 2 {
		meta[kv[i]] = kv[i+1]
	}
	r.Meta = meta
	return r
}

// ErrPipelineClosed is returned by a pipeline's emit callback when the
// pipeline is shutting down and can no longer accept the record. Sources
// should stop producing when they see it; the record it was returned for
// has been accounted as Dropped.
var ErrPipelineClosed = errors.New("collector: pipeline closed")

// Source produces records until ctx is cancelled.
type Source interface {
	// Run blocks, calling emit for each record, until ctx is done or
	// emit returns an error. emit returns nil when the record was
	// accepted and ErrPipelineClosed when the pipeline is shutting down;
	// a source receiving an error should stop and return (returning
	// ErrPipelineClosed itself is treated as a clean shutdown).
	Run(ctx context.Context, emit func(Record) error) error
}

// BatchSource is an optional upgrade interface for Source: when the
// pipeline's Source implements it, Run is never called — RunBatch is,
// with an additional emitBatch that ingests a whole batch through the
// filter chain and into the queue with one channel operation, amortizing
// enqueue cost for sources that naturally produce bursts (the syslog
// listener's per-read-loop batches). emitBatch returns nil when the
// surviving records were accepted and ErrPipelineClosed when the pipeline
// refused them at shutdown (they are accounted as Dropped); the batch
// slice is copied before emitBatch returns, so callers may reuse it.
// Accounting is identical to per-record emit, so
// Ingested == Filtered + Flushed + Dropped is unaffected.
type BatchSource interface {
	Source
	RunBatch(ctx context.Context, emit func(Record) error,
		emitBatch func([]Record) error) error
}

// Stage is a first-class element of the processing chain: it can
// transform a record, drop it, and inject additional records of its own.
// It is the seam cross-message analytics (Dedup summaries, the
// internal/detect streaming detectors) mount on.
type Stage interface {
	// Process handles one record, returning the (possibly modified)
	// record and whether to keep it. emit injects extra records — dedup
	// summaries, detector alerts — downstream of this stage: they run
	// through the remaining chain, are counted as Ingested, and are
	// enqueued like any other record, so the accounting invariant
	// Ingested == Filtered + Flushed + Dropped still holds.
	// emit blocks while the flush queue is full and never refuses a
	// record, shutdown included: the flushers drain the queue until every
	// stage has closed.
	//
	// The pipeline passes the same emit function on every call to a
	// given stage, and it stays valid until Run returns, so stages may
	// retain it for emissions from the Sweep/Close lifecycle hooks.
	// Stages must be safe for concurrent Process calls: batched sources
	// deliver from several goroutines and the sweep ticker runs
	// alongside them.
	Process(r Record, emit func(Record)) (Record, bool)
}

// StageFunc adapts a function to Stage.
type StageFunc func(r Record, emit func(Record)) (Record, bool)

// Process calls f.
func (f StageFunc) Process(r Record, emit func(Record)) (Record, bool) { return f(r, emit) }

// SweepingStage is an optional Stage lifecycle extension. The pipeline
// calls Sweep periodically (every Config.SweepInterval) so window-based
// stages expire state and emit pending summaries during traffic lulls
// instead of waiting for the next record to trigger a lazy sweep. Sweep
// returns how many entries were evicted.
type SweepingStage interface {
	Stage
	Sweep(now time.Time) int
}

// ClosingStage is an optional Stage lifecycle extension. The pipeline
// calls Close once per Run, after the source has stopped and before the
// flush queue closes, so a stage can flush whatever it is still holding
// — records it emits from Close are delivered normally.
type ClosingStage interface {
	Stage
	Close()
}

// FilterFunc adapts a per-record function — one that needs neither emit
// nor lifecycle hooks — to Stage.
type FilterFunc func(r Record) (Record, bool)

// Process calls f.
func (f FilterFunc) Process(r Record, _ func(Record)) (Record, bool) { return f(r) }

// Apply calls f: the way to run a FilterFunc on a record outside a
// pipeline.
func (f FilterFunc) Apply(r Record) (Record, bool) { return f(r) }

// Sink receives flushed batches. Write must be safe to retry: the
// pipeline re-delivers the whole batch on error. ctx carries the
// pipeline's per-attempt write timeout; implementations doing I/O should
// honor it.
type Sink interface {
	Write(ctx context.Context, batch []Record) error
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(ctx context.Context, batch []Record) error

// Write calls f.
func (f SinkFunc) Write(ctx context.Context, batch []Record) error { return f(ctx, batch) }

// Stats counts pipeline activity.
type Stats struct {
	Ingested int64 // records emitted by the source (and by stages)
	Filtered int64 // records dropped by the stage chain
	Flushed  int64 // records successfully written to the sink
	Retries  int64 // batch write retries
	// Dropped counts records lost for any reason: refused by an open
	// breaker, retries exhausted, retry abandoned at shutdown, or
	// discarded at enqueue because the context was cancelled while the
	// queue was full (source records only; stage emissions always
	// enqueue). After Run returns, Ingested == Filtered + Flushed + Dropped.
	Dropped int64
	// Spooled is always 0: the pipeline has no spool (a cluster router
	// spools per node, see cluster.NodeStats). It stays only because the
	// benchmark harness still reads it.
	Spooled int64
}

// Pipeline wires source -> stages -> buffer -> sink, with retries and a
// circuit breaker between buffer and sink.
type Pipeline struct {
	Source Source
	// Stages is the processing chain: each record flows through every
	// stage in order, and stages may drop, transform, or inject records.
	// See Stage.
	Stages []Stage
	Sink   Sink

	// Config holds every pipeline knob. Optional: a nil Config behaves as
	// the zero Config (documented defaults).
	Config *Config

	// Metrics optionally publishes the pipeline's counters, queue-depth
	// gauge, breaker gauge and batch/flush/attempt histograms into
	// a shared registry; set it before Run. Left nil the same counters
	// still run standalone, so Stats() is always exact.
	Metrics *obs.Registry

	// Release, when set, is called once per record after the pipeline's
	// final disposition of it: delivered to the sink, dropped after the
	// sink refused it, or dropped at a shutdown enqueue. It exists to
	// return pooled resources — wire it to syslog.Recycle and every leased
	// listener message goes back to the listener pool instead of the GC,
	// closing the per-record allocation loop end to end.
	//
	// Opt-in, because it asserts the sink retains nothing from the batch
	// after Write returns (StoreSink qualifies: the store copies what it
	// keeps; MemorySink does not). Records dropped mid-chain by a stage
	// are NOT released — stages may retain them (Dedup holds its summary
	// records).
	Release func(r Record)

	cfg     Config
	breaker *resilience.Breaker

	// chunkPool recycles the []Record chunks flowing through the queue
	// channel, so batched ingest does not allocate a slice per handoff.
	chunkPool sync.Pool

	metricsOnce  sync.Once
	queueDepth   *obs.Gauge
	ingested     *obs.Counter
	filtered     *obs.Counter
	flushed      *obs.Counter
	retries      *obs.Counter
	dropped      *obs.Counter
	batchSize    *obs.Histogram
	flushLatency *obs.Histogram
	attemptLat   *obs.Histogram
}

// initMetrics lazily creates the pipeline's metrics — inside Metrics when
// set, standalone otherwise.
func (p *Pipeline) initMetrics() {
	p.metricsOnce.Do(func() {
		p.queueDepth = p.Metrics.Gauge("pipeline_queue_depth",
			"records buffered between ingest and flush")
		p.ingested = p.Metrics.Counter("pipeline_ingested_total",
			"records emitted by the source (including stage-injected records)")
		p.filtered = p.Metrics.Counter("pipeline_filtered_total",
			"records dropped by the stage chain")
		p.flushed = p.Metrics.Counter("pipeline_flushed_total",
			"records successfully written to the sink")
		p.retries = p.Metrics.Counter("pipeline_retries_total",
			"batch write retries")
		p.dropped = p.Metrics.Counter("pipeline_dropped_total",
			"records lost: refused by the sink after retries or the breaker, or discarded at enqueue")
		p.batchSize = p.Metrics.Histogram("pipeline_batch_size",
			"records per flushed batch", obs.SizeBuckets)
		p.flushLatency = p.Metrics.Histogram("pipeline_flush_seconds",
			"sink flush latency per batch, including retries and backoff", obs.LatencyBuckets)
		p.attemptLat = p.Metrics.Histogram("sink_write_attempt_seconds",
			"sink write latency per attempt (excluding retries and backoff)", obs.LatencyBuckets)
	})
}

// Stats returns a snapshot of the counters — reads of the same counters
// /metrics exports.
func (p *Pipeline) Stats() Stats {
	p.initMetrics()
	return Stats{
		Ingested: p.ingested.Value(),
		Filtered: p.filtered.Value(),
		Flushed:  p.flushed.Value(),
		Retries:  p.retries.Value(),
		Dropped:  p.dropped.Value(),
	}
}

// prepare validates the pipeline, resolves the effective Config and
// initializes metrics.
func (p *Pipeline) prepare() error {
	if p.Source == nil || p.Sink == nil {
		return errors.New("collector: pipeline needs a Source and a Sink")
	}
	cfg := Config{}
	if p.Config != nil {
		cfg = *p.Config
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	p.cfg = cfg.withDefaults()
	p.initMetrics()
	return nil
}

// Run operates the pipeline until ctx is cancelled, then drains the buffer
// into the sink and returns the source's error (nil on clean shutdown).
func (p *Pipeline) Run(ctx context.Context) error {
	if err := p.prepare(); err != nil {
		return err
	}
	p.breaker = resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: p.cfg.BreakerThreshold,
		InitialBackoff:   p.cfg.RetryBackoff,
		MaxBackoff:       p.cfg.MaxRetryBackoff,
		Jitter:           p.cfg.RetryJitter,
		Seed:             p.cfg.Seed,
	})
	p.Metrics.GaugeFunc("sink_breaker_state",
		"sink circuit breaker state (0 closed, 1 half-open, 2 open)",
		func() int64 { return int64(p.breaker.State()) })

	// The queue carries chunks — one chunk per emit on the per-record
	// path, one per batch on the batched path — so a batched source pays
	// one channel operation per read-loop iteration instead of one per
	// message. QueueDepth therefore bounds buffered *handoffs*; the
	// queueDepth gauge still counts records exactly.
	queue := make(chan []Record, p.cfg.QueueDepth)

	var wg sync.WaitGroup
	for w := 0; w < p.cfg.FlushWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.flusher(ctx, queue)
		}()
	}

	// sendChunk delivers one chunk of source records that survived the
	// chain, preferring delivery over shutdown: a cancelled context only
	// refuses a chunk when the queue has no room for it, and the refusal
	// is reported to the source as ErrPipelineClosed.
	sendChunk := func(chunk []Record) error {
		n := int64(len(chunk))
		if n == 0 {
			p.putChunk(chunk)
			return nil
		}
		p.queueDepth.Add(n)
		select {
		case queue <- chunk:
			return nil
		default:
		}
		select {
		case queue <- chunk:
			return nil
		case <-ctx.Done():
			// The records were discarded, not delivered: account for them
			// so Ingested == Filtered + Flushed + Dropped holds at
			// shutdown, and tell the source to stop.
			p.queueDepth.Add(-n)
			p.dropped.Add(n)
			p.releaseBatch(chunk)
			p.putChunk(chunk)
			return ErrPipelineClosed
		}
	}

	chain := p.Stages

	// runFrom runs r through chain[from:] and reports whether it survived.
	// Each stage gets one stable emit closure that injects records
	// downstream of itself, counted as Ingested. An injected record that
	// survives is enqueued with a plain blocking send: a stage emits from
	// Process, from the sweep ticker or from Close, all of which finish
	// before the queue closes, and the flushers drain it until then — so
	// the send always completes, and a burst summary emitted after
	// cancellation is delivered instead of racing the cancelled context.
	var runFrom func(r Record, from int) (Record, bool)
	emitFor := make([]func(Record), len(chain))
	for i := range chain {
		after := i + 1
		emitFor[i] = func(r Record) {
			p.ingested.Add(1)
			if r, keep := runFrom(r, after); keep {
				p.queueDepth.Add(1)
				queue <- append(p.getChunk(), r)
			}
		}
	}
	runFrom = func(r Record, from int) (Record, bool) {
		for i := from; i < len(chain); i++ {
			var keep bool
			if r, keep = chain[i].Process(r, emitFor[i]); !keep {
				p.filtered.Add(1)
				return r, false
			}
		}
		return r, true
	}

	emit := func(r Record) error {
		p.ingested.Add(1)
		r, keep := runFrom(r, 0)
		if !keep {
			return nil
		}
		return sendChunk(append(p.getChunk(), r))
	}

	// emitBatch ingests a whole batch: every record runs the full chain,
	// survivors share one chunk and one channel operation.
	emitBatch := func(rs []Record) error {
		p.ingested.Add(int64(len(rs)))
		chunk := p.getChunk()
		for _, r := range rs {
			if r, keep := runFrom(r, 0); keep {
				chunk = append(chunk, r)
			}
		}
		return sendChunk(chunk)
	}

	// The sweep ticker gives window-based stages (Dedup, the detectors)
	// a clock-driven eviction pass, so expired bursts summarize and idle
	// sources evict even when no traffic arrives to trigger the stages'
	// own lazy sweeps.
	var sweepers []SweepingStage
	for _, s := range chain {
		if sw, ok := s.(SweepingStage); ok {
			sweepers = append(sweepers, sw)
		}
	}
	stopSweep := make(chan struct{})
	var sweepWG sync.WaitGroup
	if len(sweepers) > 0 && p.cfg.SweepInterval > 0 {
		sweepWG.Add(1)
		go func() {
			defer sweepWG.Done()
			tick := time.NewTicker(p.cfg.SweepInterval)
			defer tick.Stop()
			for {
				select {
				case <-stopSweep:
					return
				case <-tick.C:
					for _, sw := range sweepers {
						sw.Sweep(time.Now())
					}
				}
			}
		}()
	}

	var err error
	if bs, ok := p.Source.(BatchSource); ok {
		err = bs.RunBatch(ctx, emit, emitBatch)
	} else {
		err = p.Source.Run(ctx, emit)
	}
	// Close lifecycle: with the source stopped and the queue still open,
	// stages flush whatever they are holding (pending dedup summaries)
	// so it is delivered instead of lost.
	close(stopSweep)
	sweepWG.Wait()
	for _, s := range chain {
		if cl, ok := s.(ClosingStage); ok {
			cl.Close()
		}
	}
	close(queue)
	wg.Wait()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrPipelineClosed) {
		return nil
	}
	return err
}

// getChunk takes a queue chunk from the pool (or makes a small one).
func (p *Pipeline) getChunk() []Record {
	if v := p.chunkPool.Get(); v != nil {
		return (*v.(*[]Record))[:0]
	}
	return make([]Record, 0, 16)
}

// putChunk recycles a drained chunk, clearing it first so pooled capacity
// does not pin messages or meta maps.
func (p *Pipeline) putChunk(c []Record) {
	if cap(c) == 0 {
		return
	}
	c = c[:cap(c)]
	clear(c)
	c = c[:0]
	p.chunkPool.Put(&c)
}

// flusher drains the queue into batches and writes them with retry. When
// FlushWorkers > 1 several flushers share the queue, each with its own
// batch buffer and timer.
func (p *Pipeline) flusher(ctx context.Context, queue <-chan []Record) {
	batch := make([]Record, 0, p.cfg.BatchSize)
	timer := time.NewTimer(p.cfg.FlushInterval)
	defer timer.Stop()
	flush := func() {
		if len(batch) == 0 {
			return
		}
		p.deliver(ctx, batch)
		batch = batch[:0]
	}
	for {
		select {
		case chunk, ok := <-queue:
			if !ok {
				flush()
				return
			}
			p.queueDepth.Add(-int64(len(chunk)))
			for _, r := range chunk {
				batch = append(batch, r)
				if len(batch) >= p.cfg.BatchSize {
					flush()
					if !timer.Stop() {
						select {
						case <-timer.C:
						default:
						}
					}
					timer.Reset(p.cfg.FlushInterval)
				}
			}
			p.putChunk(chunk)
		case <-timer.C:
			flush()
			timer.Reset(p.cfg.FlushInterval)
		}
	}
}

// deliver writes one batch through the circuit breaker, retrying with the
// breaker's jittered capped backoff. A batch the sink will not take —
// breaker open, retries exhausted, or retry abandoned at shutdown — is
// dropped. Backoff sleeps watch ctx so shutdown never waits out the
// ladder; the in-flight write attempt itself is never cancelled by
// shutdown, only by the per-attempt timeout, so shutdown latency is
// bounded by one attempt.
func (p *Pipeline) deliver(ctx context.Context, batch []Record) {
	p.batchSize.Observe(float64(len(batch)))
	start := time.Now()
	for attempt := 0; ; attempt++ {
		if !p.breaker.Allow() {
			p.drop(batch)
			return
		}
		err := p.writeAttempt(ctx, batch)
		if err == nil {
			p.breaker.Success()
			p.flushed.Add(int64(len(batch)))
			p.flushLatency.ObserveDuration(time.Since(start))
			p.releaseBatch(batch)
			return
		}
		p.breaker.Failure()
		if attempt >= p.cfg.MaxRetries {
			p.drop(batch)
			return
		}
		p.retries.Add(1)
		t := time.NewTimer(p.breaker.RetryDelay(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			p.drop(batch)
			return
		}
	}
}

// writeAttempt performs one sink write under the per-attempt timeout. The
// write context is detached from pipeline cancellation: an in-flight
// attempt is never abandoned halfway through shutdown (a half-written
// remote batch is worse than a slightly slower exit), so shutdown waits
// at most WriteTimeout for it.
func (p *Pipeline) writeAttempt(ctx context.Context, batch []Record) error {
	wctx := context.WithoutCancel(ctx)
	if p.cfg.WriteTimeout > 0 {
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(wctx, p.cfg.WriteTimeout)
		defer cancel()
	}
	start := time.Now()
	err := p.Sink.Write(wctx, batch)
	p.attemptLat.ObserveDuration(time.Since(start))
	return err
}

// drop accounts a batch the sink refused as Dropped and releases its
// records: this is their final disposition.
func (p *Pipeline) drop(batch []Record) {
	p.dropped.Add(int64(len(batch)))
	p.releaseBatch(batch)
}

// releaseBatch invokes the Release hook for each record of a batch that
// reached its final disposition. No-op when the hook is unset.
func (p *Pipeline) releaseBatch(batch []Record) {
	if p.Release == nil {
		return
	}
	for _, r := range batch {
		p.Release(r)
	}
}
