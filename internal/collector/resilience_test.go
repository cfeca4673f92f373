package collector

// Fault-injection tests for the delivery path: retries, the circuit
// breaker, and the resilience.ChaosSink harness driving them. The
// pipeline has no spool, so a batch the sink refuses for good is Dropped;
// durability across a node outage is the cluster router's per-node spool
// (internal/cluster's TestClusterSpool* tests).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetsyslog/internal/obs"
	"hetsyslog/internal/raceflag"
	"hetsyslog/internal/resilience"
	"hetsyslog/internal/syslog"
)

// faultCfg is the shared aggressive-timer config for fault tests: small
// batches and fast retries, so faults resolve in test time.
func faultCfg() *Config {
	return &Config{
		BatchSize:        32,
		FlushInterval:    2 * time.Millisecond,
		MaxRetries:       1,
		RetryBackoff:     time.Millisecond,
		MaxRetryBackoff:  50 * time.Millisecond,
		BreakerThreshold: 3,
		WriteTimeout:     5 * time.Second,
	}
}

// checkInvariant asserts the accounting identity that every fault test
// must preserve: Ingested == Filtered + Flushed + Dropped, with nothing
// Spooled (the pipeline has no spool).
func checkInvariant(t *testing.T, s Stats) {
	t.Helper()
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped || s.Spooled != 0 {
		t.Errorf("invariant broken: Ingested (%d) != Filtered (%d) + Flushed (%d) + Dropped (%d), or Spooled (%d) != 0",
			s.Ingested, s.Filtered, s.Flushed, s.Dropped, s.Spooled)
	}
}

// uniqueContents counts distinct message contents in the sink — the
// exactly-once/at-least-once discriminator under partial deliveries.
func uniqueContents(sink *MemorySink) map[string]int {
	seen := map[string]int{}
	for _, r := range sink.Records() {
		seen[r.Msg.Content]++
	}
	return seen
}

// waitUntil polls cond every 2ms until it holds or the timeout passes.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// TestChaosPartialDeliveryAtLeastOnce turns on the nastiest failure mode:
// the sink delivers a prefix of the batch, then errors. Retries are what
// absorb it: with enough of them (and the breaker out of the way) every
// record must arrive at least once — duplicates allowed, since a retry
// redelivers the prefix — and nothing may be dropped.
func TestChaosPartialDeliveryAtLeastOnce(t *testing.T) {
	const total = 400
	inner := &MemorySink{}
	chaos := resilience.NewChaosSink(inner.Write, resilience.ChaosPlan{
		Seed: 7, ErrorRate: 0.3, PartialRate: 1.0,
	})
	cfg := faultCfg()
	cfg.BatchSize = 8
	// 0.3^31 per batch: the seeded schedule never fails a batch this often.
	cfg.MaxRetries = 30
	cfg.MaxRetryBackoff = 2 * time.Millisecond
	cfg.BreakerThreshold = 1000
	p := &Pipeline{Sink: chaos, Config: cfg}
	ch := make(chan Record)
	p.Source = &ChannelSource{Ch: ch}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	for i := 0; i < total; i++ {
		ch <- record("cn3", "sshd", fmt.Sprintf("session %d", i), syslog.Info)
	}
	if !waitUntil(30*time.Second, func() bool {
		return len(uniqueContents(inner)) == total
	}) {
		t.Fatalf("unique=%d/%d, stats=%+v", len(uniqueContents(inner)), total, p.Stats())
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", s.Dropped)
	}
	checkInvariant(t, s)
	if _, faults := chaos.Stats(); faults == 0 {
		t.Error("chaos plan injected no faults — partial path never exercised")
	}
}

// TestChaosSlowSinkNoLoss injects random latency (a slow sink rather
// than a dead one) and checks delivery stays lossless under it.
func TestChaosSlowSinkNoLoss(t *testing.T) {
	const total = 200
	inner := &MemorySink{}
	chaos := resilience.NewChaosSink(inner.Write, resilience.ChaosPlan{
		Seed: 3, MaxDelay: 4 * time.Millisecond,
	})
	cfg := faultCfg()
	cfg.FlushWorkers = 2
	p := &Pipeline{Sink: chaos, Config: cfg}
	runPipeline(t, p, func(ch chan<- Record) {
		for i := 0; i < total; i++ {
			ch <- record("cn4", "kernel", fmt.Sprintf("slow %d", i), syslog.Info)
		}
	})
	s := p.Stats()
	if got := len(inner.Records()); got != total {
		t.Fatalf("delivered = %d, want %d", got, total)
	}
	if s.Dropped != 0 || s.Spooled != 0 {
		t.Errorf("stats = %+v", s)
	}
	checkInvariant(t, s)
}

// TestBreakerTripsInsteadOfHammeringSink checks that a dead sink stops
// seeing write attempts once the breaker opens: without the breaker a
// run this size would hit the sink once per batch times retries. Every
// batch the dead sink never took is accounted as Dropped.
func TestBreakerTripsInsteadOfHammeringSink(t *testing.T) {
	const batches = 50
	var calls atomic.Int64
	dead := SinkFunc(func(context.Context, []Record) error {
		calls.Add(1)
		return errors.New("sink down")
	})
	cfg := faultCfg()
	cfg.BatchSize = 1
	cfg.RetryBackoff = 50 * time.Millisecond // open windows outlast the test body
	cfg.MaxRetryBackoff = time.Second
	p := &Pipeline{Sink: dead, Config: cfg}
	runPipeline(t, p, func(ch chan<- Record) {
		for i := 0; i < batches; i++ {
			ch <- record("cn5", "kernel", fmt.Sprintf("storm %d", i), syslog.Emergency)
		}
	})
	s := p.Stats()
	if s.Dropped != int64(batches) || s.Flushed != 0 {
		t.Errorf("stats = %+v, want all %d records dropped", s, batches)
	}
	checkInvariant(t, s)
	// The breaker admits at most threshold failures plus occasional
	// half-open probes; far fewer than one attempt per batch.
	if got := calls.Load(); got >= batches {
		t.Errorf("sink saw %d write attempts for %d batches; breaker never opened", got, batches)
	}
}

// TestBreakerAndSpoolMetricsExported checks the delivery metrics are
// visible on /metrics while the pipeline runs — breaker state and the
// per-attempt latency histogram — and that the pipeline exports no spool
// metrics, having no spool.
func TestBreakerAndSpoolMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	var calls atomic.Int64
	inner := &MemorySink{}
	flaky := SinkFunc(func(ctx context.Context, batch []Record) error {
		if calls.Add(1) <= 2 {
			return errors.New("warmup failure")
		}
		return inner.Write(ctx, batch)
	})
	cfg := faultCfg()
	cfg.MaxRetries = 3 // the two warm-up failures are retried, not dropped
	p := &Pipeline{Sink: flaky, Config: cfg, Metrics: reg}
	ch := make(chan Record)
	p.Source = &ChannelSource{Ch: ch}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	for i := 0; i < 10; i++ {
		ch <- record("cn6", "kernel", fmt.Sprintf("observable %d", i), syslog.Info)
	}
	if !waitUntil(10*time.Second, func() bool { return len(inner.Records()) == 10 }) {
		t.Fatalf("delivery stalled: %+v", p.Stats())
	}

	// Scrape while the pipeline is live: the breaker gauge is registered
	// by Run.
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, metric := range []string{
		"sink_breaker_state",
		"sink_write_attempt_seconds",
		"pipeline_retries_total",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics is missing %s", metric)
		}
	}
	if strings.Contains(text, "spool") {
		t.Errorf("/metrics exports a spool metric, but the pipeline has no spool:\n%s", text)
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// sourceFunc adapts a function to Source for tests.
type sourceFunc func(ctx context.Context, emit func(Record) error) error

func (f sourceFunc) Run(ctx context.Context, emit func(Record) error) error { return f(ctx, emit) }

// TestEmitReturnsErrPipelineClosed wedges the queue behind a blocked
// sink, cancels the pipeline, and checks the source's emit callback
// reports typed ErrPipelineClosed instead of silently discarding.
func TestEmitReturnsErrPipelineClosed(t *testing.T) {
	release := make(chan struct{})
	blocking := SinkFunc(func(ctx context.Context, batch []Record) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	emitErr := make(chan error, 1)
	src := sourceFunc(func(ctx context.Context, emit func(Record) error) error {
		for i := 0; ; i++ {
			if err := emit(record("cn8", "kernel", fmt.Sprintf("m%d", i), syslog.Info)); err != nil {
				emitErr <- err
				return err
			}
		}
	})
	p := &Pipeline{
		Source: src, Sink: blocking,
		Config: &Config{BatchSize: 1, FlushInterval: time.Millisecond, QueueDepth: 1},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()

	time.Sleep(20 * time.Millisecond) // let the queue wedge behind the sink
	cancel()
	select {
	case err := <-emitErr:
		if !errors.Is(err, ErrPipelineClosed) {
			t.Errorf("emit error = %v, want ErrPipelineClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("emit never returned after cancel")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want nil (ErrPipelineClosed is a clean shutdown)", err)
	}
	checkInvariant(t, p.Stats())
}

// TestSyslogSourceStopsOnEmitError checks the network source tears its
// listeners down when the pipeline reports closed, instead of parsing
// records nobody will take.
func TestSyslogSourceStopsOnEmitError(t *testing.T) {
	src := NewSyslogSource("127.0.0.1:0", "")
	done := make(chan error, 1)
	go func() {
		done <- src.Run(context.Background(), func(Record) error { return ErrPipelineClosed })
	}()
	<-src.Ready()
	snd, err := syslog.DialSender("udp", src.BoundUDP, syslog.FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	deadline := time.After(5 * time.Second)
	for {
		// UDP may drop; keep sending until the refused emit closes the server.
		_ = snd.Send(&syslog.Message{
			Facility: syslog.Kern, Severity: syslog.Info,
			Timestamp: time.Now(), Hostname: "cn9", AppName: "kernel",
			Content: "one record is enough",
		})
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Run = %v", err)
			}
			return
		case <-deadline:
			t.Fatal("source kept running after emit reported the pipeline closed")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestConfigValidateReturnsAllViolations checks Validate reports every
// problem in one error instead of stopping at the first.
func TestConfigValidateReturnsAllViolations(t *testing.T) {
	bad := Config{
		BatchSize:        -1,
		FlushInterval:    -time.Second,
		MaxRetries:       -2,
		RetryBackoff:     time.Second,
		MaxRetryBackoff:  time.Millisecond, // below RetryBackoff
		RetryJitter:      -2,               // below NoJitter
		QueueDepth:       -3,
		FlushWorkers:     -1,
		WriteTimeout:     -time.Second,
		BreakerThreshold: -5,
	}
	err := bad.Validate()
	if err == nil {
		t.Fatal("want an error")
	}
	for _, field := range []string{
		"BatchSize", "FlushInterval", "MaxRetries", "MaxRetryBackoff",
		"RetryJitter", "QueueDepth", "FlushWorkers", "WriteTimeout",
		"BreakerThreshold",
	} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("Validate error does not mention %s: %v", field, err)
		}
	}
	if got := len(strings.Split(err.Error(), "\n")); got != 9 {
		t.Errorf("Validate reported %d violations, want all 9", got)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero Config must validate: %v", err)
	}
	if err := faultCfg().Validate(); err != nil {
		t.Errorf("fault test Config must validate: %v", err)
	}
}

// TestConfigResolution checks how a pipeline resolves its Config: set
// fields are honored, unset ones (and a nil Config) get the documented
// defaults, and a negative field is rejected before Run starts anything.
func TestConfigResolution(t *testing.T) {
	p := &Pipeline{
		Source: &ChannelSource{}, Sink: &MemorySink{},
		Config: &Config{
			BatchSize: 7, FlushInterval: 9 * time.Millisecond, MaxRetries: 2,
			RetryBackoff: 3 * time.Millisecond, QueueDepth: 5, FlushWorkers: 2,
		},
	}
	if err := p.prepare(); err != nil {
		t.Fatal(err)
	}
	cfg := p.cfg
	if cfg.BatchSize != 7 || cfg.FlushInterval != 9*time.Millisecond ||
		cfg.MaxRetries != 2 || cfg.RetryBackoff != 3*time.Millisecond ||
		cfg.QueueDepth != 5 || cfg.FlushWorkers != 2 {
		t.Errorf("Config fields not honored: %+v", cfg)
	}
	if cfg.WriteTimeout != 30*time.Second || cfg.BreakerThreshold != 5 || cfg.Seed != 1 {
		t.Errorf("defaults not filled: %+v", cfg)
	}

	p2 := &Pipeline{Source: &ChannelSource{}, Sink: &MemorySink{}}
	if err := p2.prepare(); err != nil {
		t.Fatal(err)
	}
	if p2.cfg.BatchSize != 128 || p2.cfg.FlushInterval != 250*time.Millisecond ||
		p2.cfg.MaxRetries != 3 || p2.cfg.RetryBackoff != 10*time.Millisecond ||
		p2.cfg.QueueDepth != 1024 || p2.cfg.FlushWorkers != 1 {
		t.Errorf("nil Config not defaulted: %+v", p2.cfg)
	}

	p3 := &Pipeline{
		Source: &ChannelSource{}, Sink: &MemorySink{},
		Config: &Config{BatchSize: -1},
	}
	if err := p3.prepare(); err == nil {
		t.Error("negative Config.BatchSize must be rejected by Validate")
	}
}

// TestWithMetasCopiesOnce checks the multi-key enrichment path both for
// correctness and for its reason to exist: one map copy for n keys,
// strictly cheaper than the equivalent WithMeta chain.
func TestWithMetasCopiesOnce(t *testing.T) {
	base := record("cn11", "kernel", "x", syslog.Info).WithMeta("existing", "kept")
	r := base.WithMetas("rack", "r3", "arch", "aarch64")
	if r.Meta["existing"] != "kept" || r.Meta["rack"] != "r3" || r.Meta["arch"] != "aarch64" {
		t.Errorf("meta = %+v", r.Meta)
	}
	if base.Meta["rack"] != "" {
		t.Error("WithMetas must not mutate the receiver's map")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("odd kv list must panic")
			}
		}()
		base.WithMetas("dangling")
	}()

	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	multi := testing.AllocsPerRun(200, func() {
		benchRecord = base.WithMetas("rack", "r3", "arch", "aarch64")
	})
	chain := testing.AllocsPerRun(200, func() {
		benchRecord = base.WithMeta("rack", "r3").WithMeta("arch", "aarch64")
	})
	if multi >= chain {
		t.Errorf("WithMetas allocs = %.1f, chained WithMeta = %.1f; the batched path must be cheaper", multi, chain)
	}
}

// benchRecord keeps benchmark/alloc-count results live so the compiler
// cannot elide the map copies under measurement.
var benchRecord Record

// BenchmarkRecordWithMetas contrasts the batched enrichment path against
// the chained one (satellite fix: the chain copies the map per key).
func BenchmarkRecordWithMetas(b *testing.B) {
	base := record("cn12", "kernel", "x", syslog.Info).WithMeta("existing", "kept")
	b.Run("WithMetas", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRecord = base.WithMetas("rack", "r3", "arch", "aarch64")
		}
	})
	b.Run("WithMetaChain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRecord = base.WithMeta("rack", "r3").WithMeta("arch", "aarch64")
		}
	})
}
