package collector

import (
	"context"
	"sync"
	"time"

	"hetsyslog/internal/obs"
	"hetsyslog/internal/store"
	"hetsyslog/internal/syslog"
)

// SyslogSource ingests from network syslog listeners (the paper's
// rsyslog -> Fluentd hop).
type SyslogSource struct {
	// UDPAddr and TCPAddr are listen addresses; empty disables that
	// listener. Use "127.0.0.1:0" to pick free ports.
	UDPAddr string
	TCPAddr string
	// Tag stamps every record (default "syslog").
	Tag string
	// MaxBatch caps the per-read-loop message batches the listener hands
	// to the batched ingest path (syslog.Server.MaxBatch); 0 means
	// syslog.DefaultMaxBatch.
	MaxBatch int
	// Metrics optionally publishes the underlying syslog server's
	// counters into a shared registry; set it before Run.
	Metrics *obs.Registry

	server *syslog.Server
	// BoundUDP/BoundTCP expose the actual addresses after Run starts
	// (for tests and examples using port 0).
	BoundUDP string
	BoundTCP string
	ready    chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
}

// NewSyslogSource returns a source listening on the given addresses.
func NewSyslogSource(udpAddr, tcpAddr string) *SyslogSource {
	return &SyslogSource{UDPAddr: udpAddr, TCPAddr: tcpAddr, Tag: "syslog",
		ready: make(chan struct{}), stop: make(chan struct{})}
}

// Ready is closed once the listeners are bound.
func (s *SyslogSource) Ready() <-chan struct{} { return s.ready }

// Run implements Source. When emit reports the pipeline closed, the
// listeners shut down instead of parsing records nobody will take. The
// listener's messages are pooled, so every retained one is Leased: the
// pipeline's Release hook (when configured) recycles it after final
// disposition, and an unhooked pipeline simply lets it fall to the GC.
func (s *SyslogSource) Run(ctx context.Context, emit func(Record) error) error {
	return s.run(ctx, syslog.HandlerFunc(func(m *syslog.Message) {
		if err := emit(Record{Tag: s.Tag, Time: m.Timestamp, Msg: m.Lease()}); err != nil {
			s.stopOnce.Do(func() { close(s.stop) })
		}
	}))
}

// RunBatch implements BatchSource: the listener's per-read-loop batches
// flow through emitBatch, one pipeline handoff per batch.
func (s *SyslogSource) RunBatch(ctx context.Context, emit func(Record) error,
	emitBatch func([]Record) error) error {
	return s.run(ctx, &sourceBatchHandler{src: s, emit: emit, emitBatch: emitBatch})
}

func (s *SyslogSource) run(ctx context.Context, h syslog.Handler) error {
	s.server = &syslog.Server{Metrics: s.Metrics, Handler: h, MaxBatch: s.MaxBatch}
	if s.UDPAddr != "" {
		addr, err := s.server.ListenUDP(s.UDPAddr)
		if err != nil {
			return err
		}
		s.BoundUDP = addr.String()
	}
	if s.TCPAddr != "" {
		addr, err := s.server.ListenTCP(s.TCPAddr)
		if err != nil {
			return err
		}
		s.BoundTCP = addr.String()
	}
	close(s.ready)
	select {
	case <-ctx.Done():
	case <-s.stop:
	}
	return s.server.Close()
}

// sourceBatchHandler adapts the listener's BatchHandler delivery to the
// pipeline's emitBatch. It must be safe for concurrent use (the UDP loop
// and every TCP connection deliver on their own goroutines), so the
// Record staging buffers come from a pool rather than being shared state.
type sourceBatchHandler struct {
	src       *SyslogSource
	emit      func(Record) error
	emitBatch func([]Record) error
	recsPool  sync.Pool
}

func (h *sourceBatchHandler) HandleSyslog(m *syslog.Message) {
	if err := h.emit(Record{Tag: h.src.Tag, Time: m.Timestamp, Msg: m.Lease()}); err != nil {
		h.src.stopOnce.Do(func() { close(h.src.stop) })
	}
}

func (h *sourceBatchHandler) HandleSyslogBatch(ms []*syslog.Message) {
	var recs []Record
	if v := h.recsPool.Get(); v != nil {
		recs = (*v.(*[]Record))[:0]
	} else {
		recs = make([]Record, 0, len(ms))
	}
	for _, m := range ms {
		// Lease: the message outlives the handler inside the Record, and
		// the pipeline's Release hook returns it to the listener pool.
		recs = append(recs, Record{Tag: h.src.Tag, Time: m.Timestamp, Msg: m.Lease()})
	}
	err := h.emitBatch(recs)
	recs = recs[:cap(recs)]
	clear(recs)
	recs = recs[:0]
	h.recsPool.Put(&recs)
	if err != nil {
		h.src.stopOnce.Do(func() { close(h.src.stop) })
	}
}

// ChannelSource ingests records from a Go channel (generator-driven
// pipelines and tests).
type ChannelSource struct {
	Ch <-chan Record
}

// Run implements Source: it forwards until the channel closes, ctx ends,
// or emit reports the pipeline closed.
func (s *ChannelSource) Run(ctx context.Context, emit func(Record) error) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case r, ok := <-s.Ch:
			if !ok {
				return nil
			}
			if err := emit(r); err != nil {
				return err
			}
		}
	}
}

// SeverityFilter drops records less severe than Max (remember: higher
// numeric severity = less severe).
func SeverityFilter(max syslog.Severity) FilterFunc {
	return func(r Record) (Record, bool) {
		if r.Msg == nil {
			return r, false
		}
		return r, r.Msg.Severity <= max
	}
}

// AppFilter keeps only records from the given applications.
func AppFilter(apps ...string) FilterFunc {
	set := make(map[string]bool, len(apps))
	for _, a := range apps {
		set[a] = true
	}
	return func(r Record) (Record, bool) {
		return r, r.Msg != nil && set[r.Msg.AppName]
	}
}

// TopologyEnricher annotates records with rack/arch metadata looked up by
// hostname — the positional context §4.5.2 needs. lookup returns
// (rack, arch, ok).
func TopologyEnricher(lookup func(host string) (rack, arch string, ok bool)) FilterFunc {
	return func(r Record) (Record, bool) {
		if r.Msg == nil {
			return r, false
		}
		if rack, arch, ok := lookup(r.Msg.Hostname); ok {
			r = r.WithMetas("rack", rack, "arch", arch)
		}
		return r, true
	}
}

// StoreSink writes batches into a Tivan store, mapping syslog fields and
// filter metadata to document fields. Each batch reaches the store as a
// single IndexBatch call — one id-range reservation and one lock per
// shard — through a pooled doc staging slice whose per-slot Fields
// backing arrays survive pooling, so a steady-state batch write allocates
// nothing (the store copies everything it retains).
type StoreSink struct {
	Store *store.Store

	docsPool sync.Pool
}

// Write implements Sink. Indexing is in-memory and fast, so ctx is only
// consulted on entry: a batch whose write context already expired is
// refused whole (safe to redeliver; duplicates are preferred to loss).
func (s *StoreSink) Write(ctx context.Context, batch []Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var docs []store.Doc
	if v := s.docsPool.Get(); v != nil {
		docs = *v.(*[]store.Doc)
	}
	if cap(docs) < len(batch) {
		docs = make([]store.Doc, len(batch))
	}
	docs = docs[:len(batch)]
	for i, r := range batch {
		RecordToDocInto(r, &docs[i])
	}
	s.Store.IndexBatch(docs)
	// Scrub the slots (pooled capacity must not pin strings or messages)
	// while keeping each slot's Fields backing array for the next batch.
	for i := range docs {
		f := docs[i].Fields
		clear(f[:cap(f)])
		docs[i] = store.Doc{Fields: f[:0]}
	}
	docs = docs[:0]
	s.docsPool.Put(&docs)
	return nil
}

// RecordToDoc converts a pipeline record to a store document.
func RecordToDoc(r Record) store.Doc {
	var d store.Doc
	RecordToDocInto(r, &d)
	return d
}

// RecordToDocInto converts a pipeline record into *d, reusing d.Fields'
// backing array (truncated, then appended to). With a recycled slot —
// StoreSink's doc pool, core.Service's — the conversion allocates nothing
// beyond the first batch that sizes the slots.
func RecordToDocInto(r Record, d *store.Doc) {
	// Sized for the canonical field set: tag + four syslog fields +
	// rack/arch enrichment + the category the service stamps on. One
	// contiguous allocation, no hashing: converting a record no longer
	// shows up as mapassign_faststr on the socket→store profile.
	fields := d.Fields[:0]
	if cap(fields) == 0 {
		fields = make(store.Fields, 0, 8)
	}
	fields = append(fields, store.Field{K: "tag", V: r.Tag})
	if r.Msg != nil {
		fields = append(fields,
			store.Field{K: "hostname", V: r.Msg.Hostname},
			store.Field{K: "app", V: r.Msg.AppName},
			store.Field{K: "severity", V: r.Msg.Severity.String()},
			store.Field{K: "facility", V: r.Msg.Facility.String()},
		)
	}
	for k, v := range r.Meta {
		fields = fields.Set(k, v)
	}
	t := r.Time
	if t.IsZero() && r.Msg != nil {
		t = r.Msg.Timestamp
	}
	body := ""
	if r.Msg != nil {
		body = r.Msg.Content
	}
	d.ID = 0
	d.Time = t
	d.Fields = fields
	d.Body = body
}

// MemorySink accumulates batches for tests and small tools. The zero value
// is ready to use.
type MemorySink struct {
	mu      sync.Mutex
	records []Record
}

// Write implements Sink.
func (s *MemorySink) Write(_ context.Context, batch []Record) error {
	s.mu.Lock()
	s.records = append(s.records, batch...)
	s.mu.Unlock()
	return nil
}

// Records returns a snapshot of everything written.
func (s *MemorySink) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.records...)
}

// WaitFor polls until at least n records arrived or the timeout passes.
func (s *MemorySink) WaitFor(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if len(s.Records()) >= n {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return len(s.Records()) >= n
}
