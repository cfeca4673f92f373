package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hetsyslog/internal/collector"
	"hetsyslog/internal/ml/markov"
	"hetsyslog/internal/monitor"
	"hetsyslog/internal/obs"
	"hetsyslog/internal/store"
	"hetsyslog/internal/taxonomy"
)

// DocIndexer receives a service's classified documents when they are
// routed somewhere other than the local Store — e.g. a multi-node
// cluster router (internal/cluster satisfies this without the import).
// IndexBatch must be safe to retry: the pipeline redelivers the whole
// batch on error, preferring duplicates to loss.
type DocIndexer interface {
	IndexBatch(ctx context.Context, docs []store.Doc) error
}

// Service is the deployed system: each incoming record is classified in
// real time, indexed into Tivan with its category (so every §4.5 view can
// group by it), and routed to the alert manager when actionable. It
// implements collector.Sink, slotting directly into the collection
// pipeline as the terminal stage.
//
// Concurrency: Write is safe for concurrent use (e.g. from a pipeline
// with FlushWorkers > 1). The classification path — Preprocessor.Process,
// Vectorizer.Transform, Classifier.Predict — is read-only after Train,
// the store and alert manager lock internally, and the one stateful
// component (the sequence detector) is serialized behind seqMu. Within
// one Write call, alerting and sequence observation happen in batch
// order on the calling goroutine, so a Notifier only sees concurrent
// calls when Write itself is called concurrently.
type Service struct {
	Classifier *TextClassifier
	Store      *store.Store
	// Indexer, when set, takes precedence over Store as the destination
	// for classified documents. Unlike the in-process Store it can fail;
	// Write surfaces the error so the pipeline's retry/breaker
	// machinery applies. Alerting may re-fire on a redelivered batch (the
	// per-category cooldown mutes the repeats).
	Indexer DocIndexer
	Alerts  *monitor.AlertManager
	// Sequences optionally watches each node's category sequence with a
	// fitted markov.SequenceDetector (related work [15]): nodes whose
	// event *dynamics* become improbable fire OnSequenceAnomaly even when
	// every individual message is routine.
	Sequences         *markov.SequenceDetector
	OnSequenceAnomaly func(node string, surprise float64)

	// Workers sets how many goroutines classify each batch passed to
	// Write (0 defaults to runtime.GOMAXPROCS(0), negative or 1 forces
	// the serial path). Classification, indexing and alerting fan out;
	// sequence observation stays in batch order regardless.
	Workers int

	// Cache, when set, short-circuits classification of repeated and
	// templated messages (see ClassifyCache). The cache caches *model
	// outputs*: swap or retrain the classifier and this cache must be
	// replaced with it. Set before the first Write; safe under
	// Workers > 1 and concurrent Writes. Whether or not a cache is set,
	// the service classifies through the pooled-scratch zero-allocation
	// path (ProcessInto/TransformInto).
	Cache *ClassifyCache

	// Metrics optionally publishes the service's counters and the
	// per-record classify-latency histogram into a shared registry; set
	// it before the first Write. Left nil the counters still run
	// standalone (Counts() stays exact) and the latency histogram — the
	// only instrument that would add time.Now calls to the hot path — is
	// disabled entirely, so an unobserved service pays nothing.
	Metrics *obs.Registry

	metricsOnce  sync.Once
	metricsReady atomic.Bool
	classified   *obs.Counter
	actionable   *obs.Counter
	seqAnoms     *obs.Counter
	classifyLat  *obs.Histogram

	cacheHitsRaw    *obs.Counter
	cacheHitsMasked *obs.Counter
	cacheMisses     *obs.Counter

	// scratchPool hands each classifying goroutine a reusable
	// ClassifyScratch so the steady-state hot path allocates nothing.
	scratchPool sync.Pool

	// docsPool recycles the []store.Doc staging slice Write uses to hand
	// a whole classified batch to Store.IndexBatch in one call — one
	// id-range reservation and one lock per shard per batch, replacing
	// the per-record Store.Index mutex/lock pair that dominated the
	// socket→store profile.
	docsPool sync.Pool

	seqMu sync.Mutex

	catIdxOnce sync.Once
	catIdx     map[taxonomy.Category]int
}

// initMetrics lazily creates the service's metrics — inside Metrics when
// set, standalone otherwise. The classify-latency histogram only exists
// with a live registry: timing every record is the one instrumentation
// cost worth gating.
func (s *Service) initMetrics() {
	// Fast path without the Do closure: constructing the capturing func
	// value costs one small allocation per call, which would be the only
	// allocation left on the cached classify path.
	if s.metricsReady.Load() {
		return
	}
	s.metricsOnce.Do(func() {
		defer s.metricsReady.Store(true)
		s.classified = s.Metrics.Counter("service_classified_total",
			"records classified in real time")
		s.actionable = s.Metrics.Counter("service_actionable_total",
			"records classified into actionable categories")
		s.seqAnoms = s.Metrics.Counter("service_sequence_anomalies_total",
			"per-node sequence anomalies fired")
		if s.Metrics != nil {
			s.classifyLat = s.Metrics.Histogram("service_classify_seconds",
				"per-record classify latency (indexing is timed by store_index_batch_seconds)",
				obs.LatencyBuckets)
		}
		if s.Cache != nil {
			s.cacheHitsRaw = s.Metrics.Counter(`service_cache_hits_total{level="raw"}`,
				"classifications answered by the cache, by level")
			s.cacheHitsMasked = s.Metrics.Counter(`service_cache_hits_total{level="masked"}`,
				"classifications answered by the cache, by level")
			s.cacheMisses = s.Metrics.Counter("service_cache_misses_total",
				"classifications that ran the model (both cache levels missed)")
			s.Cache.rawEvictions = s.Metrics.Counter(`service_cache_evictions_total{level="raw"}`,
				"classify cache LRU evictions, by level")
			s.Cache.maskedEvictions = s.Metrics.Counter(`service_cache_evictions_total{level="masked"}`,
				"classify cache LRU evictions, by level")
			if s.Metrics != nil {
				s.Metrics.GaugeFunc(`service_cache_entries{level="raw"}`,
					"classify cache entries, by level",
					func() int64 { raw, _ := s.Cache.Entries(); return int64(raw) })
				s.Metrics.GaugeFunc(`service_cache_entries{level="masked"}`,
					"classify cache entries, by level",
					func() int64 { _, masked := s.Cache.Entries(); return int64(masked) })
				s.Metrics.GaugeFuncFloat("service_cache_hit_ratio",
					"fraction of classifications answered by either cache level",
					func() float64 {
						hits := s.cacheHitsRaw.Value() + s.cacheHitsMasked.Value()
						total := hits + s.cacheMisses.Value()
						if total == 0 {
							return 0
						}
						return float64(hits) / float64(total)
					})
			}
		}
	})
}

// minParallelBatch is the batch size below which fan-out overhead
// outweighs the parallel speedup and Write stays serial.
const minParallelBatch = 8

// Write implements collector.Sink. Classification and indexing are
// in-memory, so ctx is only checked on entry: a batch whose write
// context already expired is refused whole (safe to redeliver), never
// half-classified.
func (s *Service) Write(ctx context.Context, batch []collector.Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.initMetrics()
	workers := s.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(batch) {
		workers = len(batch)
	}
	hasSink := s.Store != nil || s.Indexer != nil
	if workers <= 1 || len(batch) < minParallelBatch {
		if !hasSink {
			for _, r := range batch {
				cat, ok := s.classify(r)
				if ok {
					s.finish(r, cat)
				}
			}
			return nil
		}
		docs := s.getDocs(len(batch))
		j := 0
		for _, r := range batch {
			cat, ok := s.classify(r)
			if !ok {
				continue
			}
			buildDocInto(&docs[j], r, cat)
			j++
			s.finish(r, cat)
		}
		err := s.indexDocs(ctx, docs[:j])
		s.putDocs(docs)
		return err
	}

	// Parallel phase: classification fans out; records are striped across
	// workers so each goroutine writes a disjoint subset of cats (and doc
	// slots, when a store is attached).
	cats := make([]taxonomy.Category, len(batch))
	valid := make([]bool, len(batch))
	var docs []store.Doc
	if hasSink {
		docs = s.getDocs(len(batch))
	}
	var wg sync.WaitGroup
	// The goroutine closures capture stride, not workers: capturing the
	// latter would move it to the heap and cost the serial path — the
	// cached zero-allocation path — one allocation per Write.
	stride := workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(batch); i += stride {
				cats[i], valid[i] = s.classify(batch[i])
				if valid[i] && docs != nil {
					buildDocInto(&docs[i], batch[i], cats[i])
				}
			}
		}(w)
	}
	wg.Wait()

	// Batched index handoff: the whole classified batch reaches the store
	// in one IndexBatch call (invalid slots compacted away first), so
	// parallel workers never contend on shard locks record by record.
	if docs != nil {
		j := 0
		for i := range docs {
			if valid[i] {
				// Swap rather than copy: every slot keeps a distinct Fields
				// backing array, which putDocs preserves for the next batch.
				docs[j], docs[i] = docs[i], docs[j]
				j++
			}
		}
		err := s.indexDocs(ctx, docs[:j])
		s.putDocs(docs)
		if err != nil {
			// Refused before the alert phase: a redelivered batch re-runs
			// classification but has not double-fired notifications.
			return err
		}
	}

	// Serial phase: alerting and the per-node Markov chains run in batch
	// order on this goroutine, so parallel classification can neither
	// permute a node's event sequence nor call the Notifier concurrently.
	if s.Alerts != nil || s.Sequences != nil {
		for i, r := range batch {
			if valid[i] {
				s.finish(r, cats[i])
			}
		}
	}
	return nil
}

// indexDocs delivers classified documents to the Indexer when one is
// set, else to the local Store (which cannot fail).
func (s *Service) indexDocs(ctx context.Context, docs []store.Doc) error {
	if s.Indexer != nil {
		return s.Indexer.IndexBatch(ctx, docs)
	}
	s.Store.IndexBatch(docs)
	return nil
}

// getDocs takes the pooled doc staging slice, sized to n slots. Slots
// come back from putDocs with their Fields backing arrays intact, so a
// steady-state batch conversion allocates nothing.
func (s *Service) getDocs(n int) []store.Doc {
	var docs []store.Doc
	if v := s.docsPool.Get(); v != nil {
		docs = *(v.(*[]store.Doc))
	}
	if cap(docs) < n {
		docs = make([]store.Doc, n)
	}
	return docs[:n]
}

// putDocs recycles the staging slice, scrubbing each slot so pooled
// capacity does not pin message strings — but keeping each slot's Fields
// backing array (contents cleared) for the next batch. The store copied
// everything it retains before this is called.
func (s *Service) putDocs(docs []store.Doc) {
	if cap(docs) == 0 {
		return
	}
	docs = docs[:cap(docs)]
	for i := range docs {
		f := docs[i].Fields
		clear(f[:cap(f)])
		docs[i] = store.Doc{Fields: f[:0]}
	}
	docs = docs[:0]
	s.docsPool.Put(&docs)
}

// buildDocInto converts one classified record into *d (reusing d.Fields'
// backing array), with the predicted category stamped as a queryable
// field.
func buildDocInto(d *store.Doc, r collector.Record, cat taxonomy.Category) {
	collector.RecordToDocInto(r, d)
	d.Fields = d.Fields.Set("category", string(cat))
}

// classify runs the order-independent part of the hot path for one
// record: predict the category and count it. It reports the category and
// whether the record carried a message. Indexing is no longer here — the
// caller batches the whole Write into one Store.IndexBatch call, so
// service_classify_seconds now times classification alone and the index
// stage is attributed separately by store_index_batch_seconds.
func (s *Service) classify(r collector.Record) (taxonomy.Category, bool) {
	if r.Msg == nil {
		return "", false
	}
	// Records the detection stage classified arrive pre-labeled
	// (Meta["category"], set by internal/detect through CategoryOf), and
	// so do its alert records: a valid label skips the model, so a record
	// is classified once and an alert is stored under the category the
	// detector chose, not whatever the classifier makes of its text.
	if pre, ok := r.Meta["category"]; ok {
		if cat := taxonomy.Category(pre); taxonomy.Valid(cat) {
			s.classified.Inc()
			if taxonomy.Actionable(cat) {
				s.actionable.Inc()
			}
			return cat, true
		}
	}
	var start time.Time
	if s.classifyLat != nil {
		start = time.Now()
	}
	cat := s.predictCategory(r.Msg.Content)
	s.classified.Inc()
	if taxonomy.Actionable(cat) {
		s.actionable.Inc()
	}
	if s.classifyLat != nil {
		s.classifyLat.ObserveDuration(time.Since(start))
	}
	return cat, true
}

// predictCategory runs the cached, scratch-pooled classify fast path for
// one message: exact-repeat cache, tokenize into per-worker scratch,
// template-family cache, then vectorize + predict only on a full miss.
func (s *Service) predictCategory(text string) taxonomy.Category {
	sc, _ := s.scratchPool.Get().(*ClassifyScratch)
	if sc == nil {
		sc = &ClassifyScratch{}
	}
	label, outcome := s.Classifier.PredictCached(text, s.Cache, sc)
	s.scratchPool.Put(sc)
	if s.Cache != nil {
		switch outcome {
		case CacheHitRaw:
			s.cacheHitsRaw.Inc()
		case CacheHitMasked:
			s.cacheHitsMasked.Inc()
		default:
			s.cacheMisses.Inc()
		}
	}
	return taxonomy.Category(s.Classifier.Labels[label])
}

// CategoryOf classifies one message text through the cached fast path
// and returns its category. It is the hook the streaming detection stage
// (internal/detect) uses to key rate baselines on the same model the
// sink applies; the detector stamps its answer on the record, so the
// sink stores it without classifying the text a second time.
func (s *Service) CategoryOf(text string) taxonomy.Category {
	s.initMetrics()
	return s.predictCategory(text)
}

// CacheStats reports the cache counters (hits by level, misses) — reads
// of the same atomics /metrics exports. All zero when no cache is set.
func (s *Service) CacheStats() (rawHits, maskedHits, misses int64) {
	s.initMetrics()
	return s.cacheHitsRaw.Value(), s.cacheHitsMasked.Value(), s.cacheMisses.Value()
}

// finish runs the order-sensitive tail for one classified record:
// alert cooldown bookkeeping, then the sequence detector.
func (s *Service) finish(r collector.Record, cat taxonomy.Category) {
	// Detector-injected alerts were already routed through the alert
	// manager by the detector (with confidence attached), and they are
	// synthetic — not part of the host's real message sequence — so both
	// tails skip them: a second Consider would double-alert and a
	// synthetic record would pollute the host's Markov sequence.
	if r.Meta["detector"] != "" {
		return
	}
	if s.Alerts != nil {
		t := r.Time
		if t.IsZero() {
			t = r.Msg.Timestamp
		}
		s.Alerts.Consider(cat, r.Msg.Hostname, r.Msg.Content, t)
	}
	if s.Sequences == nil {
		return
	}
	state, ok := s.categoryIndex(cat)
	if !ok {
		return
	}
	s.seqMu.Lock()
	surprise, anomalous, err := s.Sequences.Observe(r.Msg.Hostname, state)
	s.seqMu.Unlock()
	if err == nil && anomalous {
		s.seqAnoms.Inc()
		if s.OnSequenceAnomaly != nil {
			s.OnSequenceAnomaly(r.Msg.Hostname, surprise)
		}
	}
}

// categoryIndex maps a category to its index in the classifier's label
// set (the Markov chain's state alphabet). The map is built once from
// Classifier.Labels on first use; Labels must not change afterwards.
func (s *Service) categoryIndex(cat taxonomy.Category) (int, bool) {
	s.catIdxOnce.Do(func() {
		s.catIdx = make(map[taxonomy.Category]int, len(s.Classifier.Labels))
		for i, l := range s.Classifier.Labels {
			s.catIdx[taxonomy.Category(l)] = i
		}
	})
	i, ok := s.catIdx[cat]
	return i, ok
}

// SequenceAnomalies returns how many per-node sequence anomalies fired.
func (s *Service) SequenceAnomalies() int64 {
	s.initMetrics()
	return s.seqAnoms.Value()
}

// Counts reports how many records were classified and how many fell into
// actionable categories — reads of the same counters /metrics exports.
// The sync.Once in initMetrics orders these reads against a concurrent
// first Write's lazy metric creation.
func (s *Service) Counts() (classified, actionable int64) {
	s.initMetrics()
	return s.classified.Value(), s.actionable.Value()
}
