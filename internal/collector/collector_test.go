package collector

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hetsyslog/internal/store"
	"hetsyslog/internal/syslog"
)

func record(host, app, content string, sev syslog.Severity) Record {
	return Record{
		Tag:  "syslog",
		Time: time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC),
		Msg: &syslog.Message{
			Facility: syslog.Daemon, Severity: sev,
			Hostname: host, AppName: app, Content: content,
			Timestamp: time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC),
		},
	}
}

func runPipeline(t *testing.T, p *Pipeline, feed func(chan<- Record)) {
	t.Helper()
	ch := make(chan Record)
	p.Source = &ChannelSource{Ch: ch}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	feed(ch)
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPipelineDeliversToSink(t *testing.T) {
	sink := &MemorySink{}
	p := &Pipeline{Sink: sink, Config: &Config{BatchSize: 4, FlushInterval: 10 * time.Millisecond}}
	runPipeline(t, p, func(ch chan<- Record) {
		for i := 0; i < 10; i++ {
			ch <- record("cn1", "kernel", fmt.Sprintf("message %d", i), syslog.Info)
		}
	})
	if got := len(sink.Records()); got != 10 {
		t.Fatalf("delivered = %d, want 10", got)
	}
	s := p.Stats()
	if s.Ingested != 10 || s.Flushed != 10 || s.Dropped != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPipelineFilterChain(t *testing.T) {
	sink := &MemorySink{}
	p := &Pipeline{
		Sink:   sink,
		Stages: []Stage{SeverityFilter(syslog.Warning)},
	}
	runPipeline(t, p, func(ch chan<- Record) {
		ch <- record("cn1", "kernel", "critical thing", syslog.Critical)
		ch <- record("cn1", "kernel", "noise", syslog.Debug)
		ch <- record("cn1", "kernel", "warning thing", syslog.Warning)
	})
	if got := len(sink.Records()); got != 2 {
		t.Fatalf("delivered = %d, want 2", got)
	}
	if p.Stats().Filtered != 1 {
		t.Errorf("filtered = %d", p.Stats().Filtered)
	}
}

func TestAppFilter(t *testing.T) {
	f := AppFilter("sshd", "slurmd")
	if _, keep := f.Apply(record("h", "sshd", "x", syslog.Info)); !keep {
		t.Error("sshd should pass")
	}
	if _, keep := f.Apply(record("h", "kernel", "x", syslog.Info)); keep {
		t.Error("kernel should be dropped")
	}
	if _, keep := f.Apply(Record{}); keep {
		t.Error("nil message should be dropped")
	}
}

func TestTopologyEnricher(t *testing.T) {
	f := TopologyEnricher(func(host string) (string, string, bool) {
		if host == "cn1" {
			return "r7", "x86_64-dell", true
		}
		return "", "", false
	})
	r, keep := f.Apply(record("cn1", "kernel", "x", syslog.Info))
	if !keep || r.Meta["rack"] != "r7" || r.Meta["arch"] != "x86_64-dell" {
		t.Errorf("enriched = %+v", r.Meta)
	}
	r2, keep := f.Apply(record("unknown", "kernel", "x", syslog.Info))
	if !keep || len(r2.Meta) != 0 {
		t.Errorf("unknown host should pass through unenriched: %+v", r2.Meta)
	}
}

func TestPipelineRetriesAndDrops(t *testing.T) {
	var calls atomic.Int64
	failing := SinkFunc(func(ctx context.Context, batch []Record) error {
		calls.Add(1)
		return errors.New("sink down")
	})
	p := &Pipeline{
		Sink:   failing,
		Config: &Config{BatchSize: 2, FlushInterval: 5 * time.Millisecond, MaxRetries: 2, RetryBackoff: time.Millisecond},
	}
	runPipeline(t, p, func(ch chan<- Record) {
		ch <- record("cn1", "kernel", "a", syslog.Info)
		ch <- record("cn1", "kernel", "b", syslog.Info)
	})
	s := p.Stats()
	if s.Dropped != 2 {
		t.Errorf("dropped = %d, want 2", s.Dropped)
	}
	if s.Retries != 2 {
		t.Errorf("retries = %d, want 2", s.Retries)
	}
	if calls.Load() != 3 { // initial + 2 retries
		t.Errorf("sink calls = %d, want 3", calls.Load())
	}
}

func TestPipelineRecoversAfterTransientFailure(t *testing.T) {
	var calls atomic.Int64
	sink := &MemorySink{}
	flaky := SinkFunc(func(ctx context.Context, batch []Record) error {
		if calls.Add(1) == 1 {
			return errors.New("transient")
		}
		return sink.Write(ctx, batch)
	})
	p := &Pipeline{Sink: flaky, Config: &Config{BatchSize: 2, MaxRetries: 3, RetryBackoff: time.Millisecond}}
	runPipeline(t, p, func(ch chan<- Record) {
		ch <- record("cn1", "kernel", "a", syslog.Info)
		ch <- record("cn1", "kernel", "b", syslog.Info)
	})
	if got := len(sink.Records()); got != 2 {
		t.Fatalf("delivered after retry = %d", got)
	}
	if p.Stats().Dropped != 0 {
		t.Error("nothing should drop on transient failure")
	}
}

func TestPipelineFlushOnInterval(t *testing.T) {
	sink := &MemorySink{}
	p := &Pipeline{Sink: sink, Config: &Config{BatchSize: 1000, FlushInterval: 5 * time.Millisecond}}
	ch := make(chan Record)
	p.Source = &ChannelSource{Ch: ch}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	ch <- record("cn1", "kernel", "lonely", syslog.Info)
	// Far below BatchSize: only the interval can flush it.
	if !sink.WaitFor(1, 2*time.Second) {
		t.Fatal("interval flush never happened")
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShutdownInterruptsRetryBackoff cancels the pipeline while the sink
// is failing with a long backoff ladder: shutdown must not sleep the
// ladder out, and the abandoned batch must be accounted as Dropped.
func TestShutdownInterruptsRetryBackoff(t *testing.T) {
	var calls atomic.Int64
	failing := SinkFunc(func(ctx context.Context, batch []Record) error {
		calls.Add(1)
		return errors.New("sink down")
	})
	p := &Pipeline{
		Sink: failing,
		Config: &Config{
			BatchSize:     1,
			FlushInterval: time.Millisecond,
			MaxRetries:    10,
			RetryBackoff:  30 * time.Second, // ladder would take minutes
		},
	}
	ch := make(chan Record)
	p.Source = &ChannelSource{Ch: ch}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()

	ch <- record("cn1", "kernel", "doomed", syslog.Info)
	// Let the flusher pick the record up and enter the first backoff.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	cancel()
	close(ch)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shutdown hung in retry backoff")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("shutdown took %v, want prompt exit from backoff", elapsed)
	}
	s := p.Stats()
	if s.Dropped != 1 {
		t.Errorf("dropped = %d, want 1 (batch abandoned mid-retry)", s.Dropped)
	}
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped {
		t.Errorf("stats invariant broken: %+v", s)
	}
}

// TestStatsInvariantWhenCancelledWithFullQueue wedges the queue behind a
// blocked sink, cancels, and checks that records discarded at enqueue
// show up in Dropped: Ingested == Filtered + Flushed + Dropped.
func TestStatsInvariantWhenCancelledWithFullQueue(t *testing.T) {
	release := make(chan struct{})
	sink := &MemorySink{}
	blocking := SinkFunc(func(ctx context.Context, batch []Record) error {
		<-release
		return sink.Write(ctx, batch)
	})
	p := &Pipeline{
		Sink:   blocking,
		Config: &Config{BatchSize: 2, FlushInterval: time.Millisecond, QueueDepth: 2},
	}
	ch := make(chan Record)
	p.Source = &ChannelSource{Ch: ch}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()

	// Feed from a goroutine: once the flusher blocks in Write and the
	// queue fills, emit blocks until the cancel below discards records.
	go func() {
		for i := 0; i < 50; i++ {
			select {
			case ch <- record("cn1", "kernel", fmt.Sprintf("m%d", i), syslog.Info):
			case <-ctx.Done():
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Dropped == 0 {
		t.Error("expected records discarded at enqueue to count as Dropped")
	}
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped {
		t.Errorf("Ingested (%d) != Filtered (%d) + Flushed (%d) + Dropped (%d)",
			s.Ingested, s.Filtered, s.Flushed, s.Dropped)
	}
}

// TestFlushWorkersDeliverEverything runs the sharded flusher and checks
// nothing is lost or double-counted relative to the serial flusher.
func TestFlushWorkersDeliverEverything(t *testing.T) {
	sink := &MemorySink{}
	p := &Pipeline{
		Sink:   sink,
		Config: &Config{BatchSize: 4, FlushInterval: time.Millisecond, FlushWorkers: 4},
	}
	const n = 500
	runPipeline(t, p, func(ch chan<- Record) {
		for i := 0; i < n; i++ {
			ch <- record(fmt.Sprintf("cn%d", i%8), "kernel", fmt.Sprintf("message %d", i), syslog.Info)
		}
	})
	if got := len(sink.Records()); got != n {
		t.Fatalf("delivered = %d, want %d", got, n)
	}
	s := p.Stats()
	if s.Flushed != n || s.Dropped != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped {
		t.Errorf("stats invariant broken: %+v", s)
	}
}

func TestPipelineRequiresSourceAndSink(t *testing.T) {
	if err := (&Pipeline{}).Run(context.Background()); err == nil {
		t.Error("empty pipeline should error")
	}
}

func TestRecordToDoc(t *testing.T) {
	r := record("cn7", "sshd", "Connection closed", syslog.Warning).
		WithMeta("rack", "r2").WithMeta("arch", "aarch64-cavium")
	d := RecordToDoc(r)
	if d.Body != "Connection closed" || d.Fields.Value("hostname") != "cn7" ||
		d.Fields.Value("app") != "sshd" || d.Fields.Value("severity") != "warning" ||
		d.Fields.Value("rack") != "r2" {
		t.Errorf("doc = %+v", d)
	}
}

func TestStoreSinkEndToEnd(t *testing.T) {
	st := store.New(2)
	p := &Pipeline{Sink: &StoreSink{Store: st}, Config: &Config{BatchSize: 8}}
	runPipeline(t, p, func(ch chan<- Record) {
		for i := 0; i < 20; i++ {
			ch <- record(fmt.Sprintf("cn%d", i%4), "kernel",
				fmt.Sprintf("CPU %d temperature above threshold", i), syslog.Warning)
		}
	})
	if st.Count() != 20 {
		t.Fatalf("store count = %d", st.Count())
	}
	hits := st.Search(store.SearchRequest{Query: store.Term{Field: "hostname", Value: "cn1"}, Size: -1})
	if len(hits) != 5 {
		t.Errorf("cn1 hits = %d, want 5", len(hits))
	}
}

func TestSyslogSourceEndToEnd(t *testing.T) {
	src := NewSyslogSource("127.0.0.1:0", "")
	sink := &MemorySink{}
	p := &Pipeline{Source: src, Sink: sink, Config: &Config{BatchSize: 4, FlushInterval: 5 * time.Millisecond}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	<-src.Ready()

	snd, err := syslog.DialSender("udp", src.BoundUDP, syslog.FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	for i := 0; i < 12; i++ {
		if err := snd.Send(&syslog.Message{
			Facility: syslog.Kern, Severity: syslog.Warning,
			Timestamp: time.Now(), Hostname: "cn42", AppName: "kernel",
			Content: fmt.Sprintf("thermal event %d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !sink.WaitFor(12, 5*time.Second) {
		t.Fatalf("only %d records arrived", len(sink.Records()))
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := sink.Records()[0]
	if got.Msg.Hostname != "cn42" {
		t.Errorf("record = %+v", got.Msg)
	}
}

func TestDedupSuppressesWithinWindow(t *testing.T) {
	clock := time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	d := NewDedup(time.Second)
	d.Now = func() time.Time { return clock }

	r := record("cn1", "kernel", "same message", syslog.Warning)
	if _, keep := d.Process(r, nil); !keep {
		t.Fatal("first occurrence must pass")
	}
	for i := 0; i < 5; i++ {
		clock = clock.Add(100 * time.Millisecond)
		if _, keep := d.Process(r, nil); keep {
			t.Fatal("duplicate inside window must drop")
		}
	}
	if d.Suppressed() != 5 {
		t.Errorf("Suppressed = %d", d.Suppressed())
	}
	// After the window: passes again, annotated with the count.
	clock = clock.Add(time.Second)
	out, keep := d.Process(r, nil)
	if !keep {
		t.Fatal("post-window occurrence must pass")
	}
	if out.Meta["repeated"] != "5" {
		t.Errorf("repeated annotation = %q", out.Meta["repeated"])
	}
}

func TestDedupDistinguishesKeys(t *testing.T) {
	d := NewDedup(time.Minute)
	a := record("cn1", "kernel", "msg", syslog.Info)
	b := record("cn2", "kernel", "msg", syslog.Info)   // different host
	c := record("cn1", "sshd", "msg", syslog.Info)     // different app
	e := record("cn1", "kernel", "other", syslog.Info) // different content
	for _, r := range []Record{a, b, c, e} {
		if _, keep := d.Process(r, nil); !keep {
			t.Fatal("distinct keys must all pass")
		}
	}
	if _, keep := d.Process(a, nil); keep {
		t.Fatal("true duplicate must drop")
	}
	if _, keep := d.Process(Record{}, nil); keep {
		t.Fatal("nil message must drop")
	}
}

func TestDedupInPipeline(t *testing.T) {
	sink := &MemorySink{}
	p := &Pipeline{
		Sink:   sink,
		Stages: []Stage{NewDedup(time.Minute)},
	}
	runPipeline(t, p, func(ch chan<- Record) {
		for i := 0; i < 10; i++ {
			ch <- record("cn7", "ipmiseld", "temperature above threshold", syslog.Critical)
		}
		ch <- record("cn7", "ipmiseld", "different event", syslog.Critical)
	})
	// Three records: the burst's first occurrence, the distinct event,
	// and the "repeated 9" summary the Close lifecycle hook flushes at
	// shutdown (the burst's window never expired while running).
	if got := len(sink.Records()); got != 3 {
		t.Fatalf("delivered = %d, want 3 (first + distinct + shutdown summary)", got)
	}
	summaries := 0
	for _, r := range sink.Records() {
		if r.Meta["repeated"] == "9" {
			summaries++
		}
	}
	if summaries != 1 {
		t.Errorf("shutdown summaries = %d, want 1", summaries)
	}
	s := p.Stats()
	if s.Filtered != 9 {
		t.Errorf("filtered = %d", s.Filtered)
	}
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped+s.Spooled {
		t.Errorf("invariant violated: %+v", s)
	}
}
