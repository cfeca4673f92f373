package collector

// Fault-injection tests for the delivery path: circuit breaker, disk
// spill queue, and the resilience.ChaosSink harness driving them. Test
// names deliberately contain Chaos/Spool/Breaker so CI's focused gate
// (`go test -run 'Chaos|Spool|Breaker' ./internal/...`) runs exactly
// this suite, with and without -race.

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
// batches, fast retries, fast replay, so outages resolve in test time.
func faultCfg(spoolDir string) *Config {
	return &Config{
		BatchSize:        32,
		FlushInterval:    2 * time.Millisecond,
		MaxRetries:       1,
		RetryBackoff:     time.Millisecond,
		MaxRetryBackoff:  50 * time.Millisecond,
		BreakerThreshold: 3,
		WriteTimeout:     5 * time.Second,
		ReplayInterval:   5 * time.Millisecond,
		SpoolDir:         spoolDir,
	}
}

// checkInvariant asserts the accounting identity that every fault test
// must preserve: Ingested == Filtered + Flushed + Dropped + Spooled.
func checkInvariant(t *testing.T, s Stats) {
	t.Helper()
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped+s.Spooled {
		t.Errorf("invariant broken: Ingested (%d) != Filtered (%d) + Flushed (%d) + Dropped (%d) + Spooled (%d)",
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

// TestChaosOutageZeroLossWithSpool is the headline acceptance test: a
// total sink outage starts with the first write and lasts seconds, the
// pipeline keeps ingesting at load the whole time, and when the sink
// recovers every record must be in the sink exactly once with
// Dropped == 0 — the outage costs latency, never data.
func TestChaosOutageZeroLossWithSpool(t *testing.T) {
	total, outage := 20000, 5*time.Second
	if raceflag.Enabled || testing.Short() {
		total, outage = 3000, time.Second
	}
	inner := &MemorySink{}
	chaos := resilience.NewChaosSink(inner.Write, resilience.ChaosPlan{
		OutageAfter: 0, OutageFor: outage,
	})
	p := &Pipeline{Sink: chaos, Config: faultCfg(t.TempDir())}
	ch := make(chan Record)
	p.Source = &ChannelSource{Ch: ch}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()

	for i := 0; i < total; i++ {
		ch <- record(fmt.Sprintf("cn%d", i%64), "kernel", fmt.Sprintf("event %d", i), syslog.Info)
	}
	// The sink is down: records must be spooling, not dropping. Then the
	// outage ends and the replayer must drain the spool completely.
	if !waitUntil(outage+20*time.Second, func() bool {
		return len(inner.Records()) == total && p.Stats().Spooled == 0
	}) {
		t.Fatalf("after outage: delivered=%d/%d, stats=%+v", len(inner.Records()), total, p.Stats())
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	s := p.Stats()
	if s.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0 (outage must spool, not drop)", s.Dropped)
	}
	if s.Ingested != int64(total) || s.Flushed != int64(total) || s.Spooled != 0 {
		t.Errorf("stats = %+v, want Ingested=Flushed=%d Spooled=0", s, total)
	}
	checkInvariant(t, s)
	seen := uniqueContents(inner)
	if len(seen) != total {
		t.Fatalf("unique records = %d, want %d", len(seen), total)
	}
	for content, n := range seen {
		if n != 1 {
			t.Fatalf("record %q delivered %d times, want exactly once", content, n)
		}
	}
	if calls, faults := chaos.Stats(); faults == 0 {
		t.Errorf("chaos sink saw %d calls but injected no faults — outage never exercised", calls)
	}
}

// TestSpoolReplayExactlyOnce is the -race parity test: batches that fail
// their first deliveries spill to disk and are replayed, and every
// record still reaches the sink exactly once within the process.
func TestSpoolReplayExactlyOnce(t *testing.T) {
	const total = 600
	inner := &MemorySink{}
	var calls atomic.Int64
	flaky := SinkFunc(func(ctx context.Context, batch []Record) error {
		if calls.Add(1) <= 6 {
			return errors.New("sink down")
		}
		return inner.Write(ctx, batch)
	})
	p := &Pipeline{Sink: flaky, Config: faultCfg(t.TempDir())}
	ch := make(chan Record)
	p.Source = &ChannelSource{Ch: ch}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	for i := 0; i < total; i++ {
		ch <- record("cn1", "slurmd", fmt.Sprintf("job step %d", i), syslog.Info)
	}
	if !waitUntil(20*time.Second, func() bool {
		return len(inner.Records()) == total && p.Stats().Spooled == 0
	}) {
		t.Fatalf("delivered=%d/%d, stats=%+v", len(inner.Records()), total, p.Stats())
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Dropped != 0 || s.Spooled != 0 {
		t.Errorf("stats = %+v, want Dropped=0 Spooled=0", s)
	}
	checkInvariant(t, s)
	for content, n := range uniqueContents(inner) {
		if n != 1 {
			t.Fatalf("record %q delivered %d times, want exactly once", content, n)
		}
	}
}

// TestSpoolRecoveryAcrossRestart runs one pipeline against a dead sink
// (everything spools), tears it down, then starts a second pipeline over
// the same spool directory with a healthy sink: the recovered records
// must enter the new run's books as Ingested and land in the sink.
func TestSpoolRecoveryAcrossRestart(t *testing.T) {
	const total = 120
	dir := t.TempDir()

	dead := SinkFunc(func(context.Context, []Record) error {
		return errors.New("sink down for the whole run")
	})
	p1 := &Pipeline{Sink: dead, Config: faultCfg(dir)}
	ch := make(chan Record)
	p1.Source = &ChannelSource{Ch: ch}
	done := make(chan error, 1)
	go func() { done <- p1.Run(context.Background()) }()
	for i := 0; i < total; i++ {
		ch <- record("cn2", "kernel", fmt.Sprintf("pre-crash %d", i), syslog.Warning)
	}
	if !waitUntil(10*time.Second, func() bool { return p1.Stats().Spooled == int64(total) }) {
		t.Fatalf("run 1 never spooled everything: %+v", p1.Stats())
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s1 := p1.Stats()
	if s1.Dropped != 0 || s1.Spooled != int64(total) || s1.Flushed != 0 {
		t.Fatalf("run 1 stats = %+v, want all %d records spooled", s1, total)
	}
	checkInvariant(t, s1)

	// "Restart": a fresh pipeline over the same directory, healthy sink,
	// no new input. Run's final drain replays the recovered records even
	// though the source closes immediately.
	sink := &MemorySink{}
	p2 := &Pipeline{Sink: sink, Config: faultCfg(dir)}
	ch2 := make(chan Record)
	p2.Source = &ChannelSource{Ch: ch2}
	close(ch2)
	if err := p2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := p2.Stats()
	if got := len(sink.Records()); got != total {
		t.Fatalf("recovered records delivered = %d, want %d", got, total)
	}
	if s2.Ingested != int64(total) || s2.Flushed != int64(total) || s2.Spooled != 0 || s2.Dropped != 0 {
		t.Errorf("run 2 stats = %+v, want Ingested=Flushed=%d", s2, total)
	}
	checkInvariant(t, s2)
}

// TestSpoolCatchesShutdownMidFlush cancels the pipeline while a batch is
// mid-retry against a failing sink: with a spool configured the
// abandoned batch must spill to disk (Spooled), not vanish (Dropped) —
// the durability counterpart of TestShutdownInterruptsRetryBackoff.
func TestSpoolCatchesShutdownMidFlush(t *testing.T) {
	var calls atomic.Int64
	failing := SinkFunc(func(context.Context, []Record) error {
		calls.Add(1)
		return errors.New("sink down")
	})
	cfg := faultCfg(t.TempDir())
	cfg.BatchSize = 1
	cfg.FlushInterval = time.Millisecond
	cfg.MaxRetries = 10
	cfg.RetryBackoff = 30 * time.Second // ladder would take minutes
	cfg.MaxRetryBackoff = time.Minute
	cfg.BreakerThreshold = 100 // keep the breaker out of this test
	p := &Pipeline{Sink: failing, Config: cfg}
	ch := make(chan Record)
	p.Source = &ChannelSource{Ch: ch}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()

	ch <- record("cn1", "kernel", "doomed but durable", syslog.Info)
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
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung in retry backoff")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("shutdown took %v, want prompt exit from backoff", elapsed)
	}
	s := p.Stats()
	if s.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0 (batch must spill to disk)", s.Dropped)
	}
	if s.Spooled != 1 {
		t.Errorf("Spooled = %d, want 1 (batch abandoned mid-retry)", s.Spooled)
	}
	checkInvariant(t, s)
}

// TestChaosPartialDeliveryAtLeastOnce turns on the nastiest failure mode:
// the sink delivers a prefix of the batch, then errors. Redelivery means
// duplicates are allowed, but every record must still arrive at least
// once and nothing may be dropped.
func TestChaosPartialDeliveryAtLeastOnce(t *testing.T) {
	const total = 400
	inner := &MemorySink{}
	chaos := resilience.NewChaosSink(inner.Write, resilience.ChaosPlan{
		Seed: 7, ErrorRate: 0.3, PartialRate: 1.0,
	})
	cfg := faultCfg(t.TempDir())
	cfg.BatchSize = 8
	p := &Pipeline{Sink: chaos, Config: cfg}
	ch := make(chan Record)
	p.Source = &ChannelSource{Ch: ch}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	for i := 0; i < total; i++ {
		ch <- record("cn3", "sshd", fmt.Sprintf("session %d", i), syslog.Info)
	}
	if !waitUntil(30*time.Second, func() bool {
		return len(uniqueContents(inner)) == total && p.Stats().Spooled == 0
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
	cfg := faultCfg(t.TempDir())
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
// run this size would hit the sink once per batch times retries.
func TestBreakerTripsInsteadOfHammeringSink(t *testing.T) {
	const batches = 50
	var calls atomic.Int64
	dead := SinkFunc(func(context.Context, []Record) error {
		calls.Add(1)
		return errors.New("sink down")
	})
	cfg := faultCfg(t.TempDir())
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
	// Every record is safe on disk regardless of how often the sink was hit.
	if s.Dropped != 0 || s.Spooled != int64(batches) {
		t.Errorf("stats = %+v, want all %d records spooled", s, batches)
	}
	checkInvariant(t, s)
	// The breaker admits at most threshold failures plus occasional
	// half-open probes; far fewer than one attempt per batch.
	if got := calls.Load(); got >= batches {
		t.Errorf("sink saw %d write attempts for %d batches; breaker never opened", got, batches)
	}
}

// TestBreakerAndSpoolMetricsExported checks the new gauges and counters
// are visible on /metrics while the pipeline runs: breaker state, spool
// occupancy, replay/eviction counters, per-attempt latency histogram.
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
	p := &Pipeline{Sink: flaky, Config: faultCfg(t.TempDir()), Metrics: reg}
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

	// Scrape while the pipeline is live: the breaker and spool gauges are
	// registered by Run.
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
		"spool_bytes",
		"spool_segments",
		"spool_replayed_total",
		"spool_evicted_total",
		"pipeline_spooled",
		"pipeline_spooled_total",
		"sink_write_attempt_seconds",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics is missing %s", metric)
		}
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSpoolEvictionCountsAsDropped bounds the spool far below the
// workload against a dead sink: the oldest records must be evicted,
// counted as Dropped, and the invariant must still balance.
func TestSpoolEvictionCountsAsDropped(t *testing.T) {
	const total = 300
	dead := SinkFunc(func(context.Context, []Record) error {
		return errors.New("sink down")
	})
	cfg := faultCfg(t.TempDir())
	cfg.BatchSize = 10
	cfg.SpoolMaxBytes = 8 * 1024 // a handful of gob batches
	p := &Pipeline{Sink: dead, Config: cfg}
	runPipeline(t, p, func(ch chan<- Record) {
		for i := 0; i < total; i++ {
			ch <- record("cn7", "kernel", fmt.Sprintf("flood %d with some padding to grow frames", i), syslog.Info)
		}
	})
	s := p.Stats()
	if s.Dropped == 0 {
		t.Error("expected evictions under the byte bound to count as Dropped")
	}
	if s.Spooled == 0 {
		t.Error("expected the newest records to survive in the spool")
	}
	if s.Dropped+s.Spooled != total {
		t.Errorf("Dropped (%d) + Spooled (%d) != %d", s.Dropped, s.Spooled, total)
	}
	checkInvariant(t, s)
}

// TestSpoolReplayEvictionRaceNoLoss deterministically reproduces the
// replay/eviction race: while a replayed frame's sink write is in
// flight, a concurrent divert evicts that frame's segment from the
// bounded spool. Before the FrameToken fix, Pop then consumed the next
// (never-delivered) frame — losing it without any accounting — and the
// delivered frame was double-counted as both Dropped (eviction) and
// Flushed. Now every record must reach the sink exactly once, end with
// Dropped == 0, and keep the invariant balanced.
func TestSpoolReplayEvictionRaceNoLoss(t *testing.T) {
	mkBatch := func(prefix string) []Record {
		b := make([]Record, 3)
		for i := range b {
			b[i] = record("cn9", "kernel", fmt.Sprintf("%s %d", prefix, i), syslog.Info)
		}
		return b
	}
	// Same-length prefixes so the three gob frames are byte-identical in
	// size and the spool bound below admits exactly two of them.
	batchA, batchB, batchC := mkBatch("evict-a"), mkBatch("frame-b"), mkBatch("frame-c")
	payA, err := encodeBatch(batchA)
	if err != nil {
		t.Fatal(err)
	}
	payB, err := encodeBatch(batchB)
	if err != nil {
		t.Fatal(err)
	}

	inner := &MemorySink{}
	p := &Pipeline{Source: sourceFunc(func(context.Context, func(Record) error) error { return nil })}
	var raced atomic.Bool
	p.Sink = SinkFunc(func(ctx context.Context, batch []Record) error {
		if raced.CompareAndSwap(false, true) {
			// Mid-write of frame A: a flush worker diverts a new batch,
			// overflowing the bound and evicting frame A's segment.
			p.divert(batchC)
		}
		return inner.Write(ctx, batch)
	})
	if err := p.prepare(); err != nil {
		t.Fatal(err)
	}
	p.breaker = resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: 3, InitialBackoff: time.Millisecond,
		MaxBackoff: 10 * time.Millisecond, Seed: 1,
	})
	// SegmentBytes 1 puts every frame in its own segment; the bound holds
	// exactly two frames (12 bytes of header per frame).
	spool, err := resilience.OpenSpool(resilience.SpoolConfig{
		Dir:          t.TempDir(),
		MaxBytes:     int64(len(payA) + len(payB) + 2*12),
		SegmentBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer spool.Close()
	p.spool = spool

	p.ingested.Add(9) // the three batches, as if emitted by a source
	p.divert(batchA)
	p.divert(batchB)
	p.replayDrain(context.Background())

	s := p.Stats()
	if s.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0 (evicted-mid-replay frame was delivered)", s.Dropped)
	}
	if s.Flushed != 9 || s.Spooled != 0 {
		t.Errorf("stats = %+v, want Flushed=9 Spooled=0", s)
	}
	checkInvariant(t, s)
	seen := uniqueContents(inner)
	if len(seen) != 9 {
		t.Fatalf("unique records delivered = %d, want 9 (frame B must not be consumed undelivered)", len(seen))
	}
	for content, n := range seen {
		if n != 1 {
			t.Errorf("record %q delivered %d times, want exactly once", content, n)
		}
	}
	if got := p.evicted.Value(); got != 0 {
		t.Errorf("spool_evicted_total = %d, want 0 after reclassification", got)
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
		SpoolMaxBytes:    1024, // without SpoolDir
		ReplayInterval:   -time.Millisecond,
	}
	err := bad.Validate()
	if err == nil {
		t.Fatal("want an error")
	}
	for _, field := range []string{
		"BatchSize", "FlushInterval", "MaxRetries", "MaxRetryBackoff",
		"RetryJitter", "QueueDepth", "FlushWorkers", "WriteTimeout",
		"BreakerThreshold", "SpoolMaxBytes", "ReplayInterval",
	} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("Validate error does not mention %s: %v", field, err)
		}
	}
	if got := len(strings.Split(err.Error(), "\n")); got < 11 {
		t.Errorf("Validate reported %d violations, want all 11", got)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero Config must validate: %v", err)
	}
	if err := faultCfg(t.TempDir()).Validate(); err != nil {
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
