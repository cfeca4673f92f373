package main

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetsyslog/bench/stat"
	"hetsyslog/bench/trace"
	"hetsyslog/bench/workload"
	"hetsyslog/internal/collector"
	"hetsyslog/internal/core"
	"hetsyslog/internal/store"
	"hetsyslog/internal/syslog"
	"hetsyslog/internal/taxonomy"
)

// The traced run measures each layer from outside: timing wrappers at the
// public seams (Stage, Sink, DocIndexer, http.Handler), the histograms
// the layers already publish on their obs.Registry, and isolated replays
// of the pure functions (parse, encode, decode) on the workload's own
// bytes. Nothing inside internal/ is touched.

const (
	// sampleEvery spaces the per-record timers: timing every record
	// would cost two clock reads per stage per record — more than some
	// stages do themselves — so one record in 64 is timed and all are
	// counted.
	sampleEvery = 64
	// tapRing holds the head-of-chain timestamps of sampled records until
	// the sink sees them; it covers a million records in flight.
	tapRing  = 1 << 14
	maxSpans = 250_000

	spanWrite     = "core.write"
	spanIndex     = "store.index"
	spanRoute     = "cluster.route"
	spanNodeIndex = "cluster.node_index"
	spanNodeQuery = "cluster.node_query"
	spanScatter   = "cluster.scatter"
	spanRefresh   = "refresh"
	spanRetention = "store.retention"
)

type tracer struct {
	rec *trace.Recorder

	taps     [tapRing]atomic.Int64
	batchNo  atomic.Int64
	curWrite atomic.Int32

	mu        sync.Mutex
	stages    map[string]*stageTimer
	queueWait stat.Hist
	indexed   int64 // documents handed to the indexer
	ops       map[string]*stat.Samples
}

func newTracer() *tracer {
	return &tracer{
		rec:    trace.NewRecorder(maxSpans),
		stages: make(map[string]*stageTimer),
		ops:    make(map[string]*stat.Samples),
	}
}

// tap is the stage at the head of the chain: it stamps sampled records
// with the time they entered, which the sink wrapper reads back to get
// the wait between the two.
func (t *tracer) tap() collector.Stage {
	return collector.StageFunc(func(r collector.Record, _ func(collector.Record)) (collector.Record, bool) {
		if seq, ok := workload.ParseSeq(r.Msg.MsgID); ok && seq%sampleEvery == 0 {
			t.taps[(seq/sampleEvery)%tapRing].Store(time.Now().UnixNano())
		}
		return r, true
	})
}

type stageTimer struct {
	n    atomic.Int64
	mu   sync.Mutex
	hist stat.Hist
}

// timedStage times one call in sampleEvery to the stage it wraps and
// forwards the lifecycle hooks the pipeline probes for.
type timedStage struct {
	inner collector.Stage
	t     *stageTimer
}

func (t *tracer) stage(name string, inner collector.Stage) collector.Stage {
	st := &stageTimer{}
	t.stages[name] = st
	return &timedStage{inner: inner, t: st}
}

func (s *timedStage) Process(r collector.Record, emit func(collector.Record)) (collector.Record, bool) {
	if s.t.n.Add(1)%sampleEvery != 0 {
		return s.inner.Process(r, emit)
	}
	start := time.Now()
	out, keep := s.inner.Process(r, emit)
	d := time.Since(start).Nanoseconds()
	s.t.mu.Lock()
	s.t.hist.Add(d)
	s.t.mu.Unlock()
	return out, keep
}

func (s *timedStage) Sweep(now time.Time) int {
	if sw, ok := s.inner.(collector.SweepingStage); ok {
		return sw.Sweep(now)
	}
	return 0
}

func (s *timedStage) Close() {
	if c, ok := s.inner.(collector.ClosingStage); ok {
		c.Close()
	}
}

// classify times one call in sampleEvery to the classify hook the
// detector is given, so the model's work inside Detector.Process can be
// billed to core rather than to detect.
func (t *tracer) classify(f func(string) taxonomy.Category) func(string) taxonomy.Category {
	st := &stageTimer{}
	t.stages["core.classify_in_detect"] = st
	return func(text string) taxonomy.Category {
		if st.n.Add(1)%sampleEvery != 0 {
			return f(text)
		}
		start := time.Now()
		cat := f(text)
		d := time.Since(start).Nanoseconds()
		st.mu.Lock()
		st.hist.Add(d)
		st.mu.Unlock()
		return cat
	}
}

// beginWrite opens the span of one Service.Write and samples the wait of
// the batch's tapped records. Records below acked are dedup summaries
// re-emitting a burst's first record, whose tap time is a window old.
func (t *tracer) beginWrite(batch []collector.Record, acked uint64, start time.Time) int32 {
	id := t.rec.Reserve(spanWrite, 0, t.batchNo.Add(1), start)
	t.curWrite.Store(id)
	now := start.UnixNano()
	t.mu.Lock()
	for _, r := range batch {
		if seq, ok := workload.ParseSeq(r.Msg.MsgID); ok && seq%sampleEvery == 0 && seq >= acked {
			if at := t.taps[(seq/sampleEvery)%tapRing].Load(); at > 0 && at <= now {
				t.queueWait.Add(now - at)
			}
		}
	}
	t.mu.Unlock()
	return id
}

// timedIndexer records a child span of the current Service.Write around
// the indexer it wraps: Store.IndexBatch on one node, Router.IndexBatch
// in cluster mode.
type timedIndexer struct {
	inner core.DocIndexer
	name  string
	t     *tracer
}

func (t *tracer) indexer(inner core.DocIndexer) core.DocIndexer {
	name := spanRoute
	if _, ok := inner.(storeIndexer); ok {
		name = spanIndex
	}
	return &timedIndexer{inner: inner, name: name, t: t}
}

func (ti *timedIndexer) IndexBatch(ctx context.Context, docs []store.Doc) error {
	start := time.Now()
	err := ti.inner.IndexBatch(ctx, docs)
	ti.t.rec.Add(ti.name, ti.t.curWrite.Load(), ti.t.batchNo.Load(), start, time.Now())
	ti.t.mu.Lock()
	ti.t.indexed += int64(len(docs))
	ti.t.mu.Unlock()
	return err
}

// nodeHandler is the timing middleware on the benchmark-owned store
// nodes: the far side of the cluster hop.
func (t *tracer) nodeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := spanNodeQuery
		if r.URL.Path == "/index/batch" {
			name = spanNodeIndex
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.rec.Add(name, 0, 0, start, time.Now())
	})
}

// refreshTimer returns the per-operation timer one refresh records
// through, parented on that refresh's span.
func (t *tracer) refreshTimer(parent int32, refreshNo int64, keep bool) func(op string, start, end time.Time) {
	return func(op string, start, end time.Time) {
		t.rec.Add(op, parent, refreshNo, start, end)
		if keep {
			t.mu.Lock()
			s := t.ops[op]
			if s == nil {
				s = &stat.Samples{}
				t.ops[op] = s
			}
			s.Add(float64(end.Sub(start).Nanoseconds()) / 1e6)
			t.mu.Unlock()
		}
	}
}

func (t *tracer) opP50(op string) (float64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.ops[op]; s != nil {
		return s.Quantile(0.5), int64(s.N())
	}
	return 0, 0
}

func (t *tracer) stageNs(name string) (float64, int64) {
	st := t.stages[name]
	if st == nil {
		return 0, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hist.Mean(), int64(st.hist.N())
}

// spanStats summarises the spans of one name inside [from, to).
type spanStats struct {
	n       int64
	totalNs int64
	selfNs  int64
	durs    []float64 // ms
}

func (s spanStats) meanMs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.totalNs) / float64(s.n) / 1e6
}

func (s spanStats) p50Ms() float64 {
	d := append([]float64(nil), s.durs...)
	sort.Float64s(d)
	return stat.Quantile(d, 0.5)
}

// byName groups the spans that started inside the measured window.
func byName(spans []trace.Span, from, to int64) map[string]*spanStats {
	self := trace.SelfTimes(spans)
	out := make(map[string]*spanStats)
	for _, s := range spans {
		if s.Start < from || s.Start >= to {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.n++
		st.totalNs += s.Dur()
		st.selfNs += self[s.ID]
		st.durs = append(st.durs, float64(s.Dur())/1e6)
	}
	return out
}

// replayParse times the listener's two pure steps alone — FrameReader
// splitting the octet-counted stream and syslog.ParseBytes — on the
// workload's own bytes: the median of five passes, nanoseconds per record.
func replayParse(sys *system, sp spec, seed int64) (nsPerRec float64, frames [][]byte) {
	const n = 20000
	g := workload.NewGenerator(sys.corpus, sp.shape, seed, 0)
	stamp := workload.AppendStamp(nil, time.Now())
	var wire []byte
	for i := 0; i < n; i++ {
		wire = g.AppendFrame(wire, g.Next(), stamp)
	}
	fr := syslog.NewFrameReader(bytes.NewReader(wire))
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			break
		}
		frames = append(frames, append([]byte(nil), f...))
	}
	var m syslog.Message
	ref := time.Now()
	var passes []float64
	for p := 0; p < 5; p++ {
		fr := syslog.NewFrameReader(bytes.NewReader(wire))
		start := time.Now()
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				break
			}
			_ = syslog.ParseBytes(f, ref, &m)
		}
		passes = append(passes, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	sort.Float64s(passes)
	return passes[len(passes)/2], frames
}

// replayCodec times the cluster wire codec alone on documents built from
// the workload's frames, in router-sized batches: nanoseconds per
// document to encode and to decode, and bytes per document on the wire.
func replayCodec(sys *system, frames [][]byte) (encNs, decNs, bytesPerDoc float64) {
	const batch = 128
	docs := make([]store.Doc, 0, len(frames))
	ref := time.Now()
	for _, f := range frames {
		m := new(syslog.Message)
		if syslog.ParseBytes(f, ref, m) != nil {
			continue
		}
		rec, _ := sys.enrich.Process(collector.Record{Tag: "syslog", Time: m.Timestamp, Msg: m}, nil)
		d := collector.RecordToDoc(rec)
		d.Fields = d.Fields.Set("category", string(sys.corpus.Base[0].Category))
		docs = append(docs, d)
	}
	if len(docs) < batch {
		return 0, 0, 0
	}
	var enc, dec []float64
	var wireBytes, wireDocs int
	var buf []byte
	var out []store.Doc
	for p := 0; p < 5; p++ {
		var encT, decT time.Duration
		for lo := 0; lo+batch <= len(docs); lo += batch {
			start := time.Now()
			buf = store.EncodeDocs(buf[:0], docs[lo:lo+batch])
			mid := time.Now()
			out, _ = store.DecodeDocs(buf, out[:0])
			decT += time.Since(mid)
			encT += mid.Sub(start)
			if p == 0 {
				wireBytes += len(buf)
				wireDocs += batch
			}
		}
		n := float64(len(docs) / batch * batch)
		enc = append(enc, float64(encT.Nanoseconds())/n)
		dec = append(dec, float64(decT.Nanoseconds())/n)
	}
	sort.Float64s(enc)
	sort.Float64s(dec)
	return enc[2], dec[2], float64(wireBytes) / float64(wireDocs)
}

// searchAllocs counts heap allocations per broad search on the quiescent
// store: the read path's per-match cost in its plainest form.
func searchAllocs(b backend, p refreshPlan) float64 {
	const runs = 3
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		_, _ = b.Search(p.broad, searchSize)
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / runs
}
