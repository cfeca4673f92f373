package collector

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetsyslog/internal/obs"
	"hetsyslog/internal/syslog"
)

// fakeClockDedup returns a dedup with a controllable clock starting at a
// fixed instant.
func fakeClockDedup(window time.Duration) (*Dedup, *time.Time) {
	clock := time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	d := NewDedup(window)
	d.Now = func() time.Time { return clock }
	return d, &clock
}

func TestDedupEvictsExpiredEntries(t *testing.T) {
	d, clock := fakeClockDedup(time.Second)
	// 100 distinct messages, none repeated.
	for i := 0; i < 100; i++ {
		r := record("cn1", "kernel", "unique message "+strings.Repeat("x", i), syslog.Info)
		if _, keep := d.Process(r, nil); !keep {
			t.Fatal("distinct messages must pass")
		}
	}
	if got := d.Tracked(); got != 100 {
		t.Fatalf("Tracked = %d, want 100", got)
	}
	// After the window, the next Apply's lazy sweep must evict them all:
	// without eviction every unique triple ever seen lives forever.
	*clock = clock.Add(2 * time.Second)
	if _, keep := d.Process(record("cn2", "sshd", "fresh", syslog.Info), nil); !keep {
		t.Fatal("fresh message must pass")
	}
	if got := d.Tracked(); got != 1 {
		t.Errorf("Tracked after lazy sweep = %d, want 1 (the fresh entry)", got)
	}
}

func TestDedupSweepEmitsExpiredBurstSummary(t *testing.T) {
	d, clock := fakeClockDedup(time.Second)
	var emitted []Record
	emit := func(r Record) { emitted = append(emitted, r) }

	r := record("cn1", "ipmiseld", "temperature above threshold", syslog.Critical)
	if _, keep := d.Process(r, emit); !keep {
		t.Fatal("first occurrence must pass")
	}
	for i := 0; i < 7; i++ {
		*clock = clock.Add(50 * time.Millisecond)
		if _, keep := d.Process(r, emit); keep {
			t.Fatal("duplicate inside window must drop")
		}
	}
	// The burst never recurs; the explicit sweep must emit the summary.
	*clock = clock.Add(2 * time.Second)
	if evicted := d.Sweep(*clock); evicted != 1 {
		t.Errorf("Sweep evicted = %d, want 1", evicted)
	}
	if len(emitted) != 1 {
		t.Fatalf("emitted = %d records, want 1", len(emitted))
	}
	if got := emitted[0].Meta["repeated"]; got != "7" {
		t.Errorf("repeated annotation = %q, want \"7\"", got)
	}
	if emitted[0].Msg.Content != "temperature above threshold" {
		t.Errorf("summary must carry the burst's first record, got %q", emitted[0].Msg.Content)
	}
	if d.Tracked() != 0 {
		t.Errorf("Tracked = %d after sweep, want 0", d.Tracked())
	}
	// Sweeping again is a no-op.
	if evicted := d.Sweep(*clock); evicted != 0 {
		t.Errorf("second Sweep evicted = %d, want 0", evicted)
	}
}

func TestDedupLazySweepEmitsViaProcess(t *testing.T) {
	d, clock := fakeClockDedup(time.Second)
	var emitted []Record
	emit := func(r Record) { emitted = append(emitted, r) }

	burst := record("cn1", "kernel", "ecc error", syslog.Error)
	d.Process(burst, emit)
	*clock = clock.Add(10 * time.Millisecond)
	d.Process(burst, emit) // suppressed
	// A different message two windows later triggers the lazy sweep.
	*clock = clock.Add(3 * time.Second)
	d.Process(record("cn9", "sshd", "login", syslog.Info), emit)
	if len(emitted) != 1 || emitted[0].Meta["repeated"] != "1" {
		t.Fatalf("lazy sweep emitted = %+v, want one record with repeated=1", emitted)
	}
}

func TestDedupRecurrenceStillAnnotates(t *testing.T) {
	// Recurrence after the window keeps the original semantics: the
	// recurring record passes annotated, and no separate summary fires
	// for the same burst.
	d, clock := fakeClockDedup(time.Second)
	var emitted []Record
	emit := func(r Record) { emitted = append(emitted, r) }

	r := record("cn1", "kernel", "same", syslog.Warning)
	d.Process(r, emit)
	*clock = clock.Add(100 * time.Millisecond)
	d.Process(r, emit) // suppressed
	*clock = clock.Add(time.Second)
	out, keep := d.Process(r, emit)
	if !keep || out.Meta["repeated"] != "1" {
		t.Fatalf("recurrence = keep=%v meta=%v, want annotated pass", keep, out.Meta)
	}
	*clock = clock.Add(2 * time.Second)
	d.Sweep(*clock)
	if len(emitted) != 0 {
		t.Errorf("summary emitted for a burst already reported by recurrence: %+v", emitted)
	}
}

func TestDedupPipelineEmitsSummariesDownstream(t *testing.T) {
	// Wired into a pipeline, expired-burst summaries are injected through
	// the rest of the filter chain and reach the sink, and the accounting
	// invariant holds.
	// The pipeline reads the clock from its own goroutine, so the fake
	// clock must be advanced atomically.
	var clockNano atomic.Int64
	clockNano.Store(time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	tick := func(d time.Duration) { clockNano.Add(int64(d)) }
	d := NewDedup(time.Second)
	d.Now = func() time.Time { return time.Unix(0, clockNano.Load()).UTC() }
	tagged := FilterFunc(func(r Record) (Record, bool) {
		return r.WithMeta("downstream", "yes"), true
	})

	sink := &MemorySink{}
	p := &Pipeline{
		Sink:   sink,
		Stages: []Stage{d, tagged},
	}
	runPipeline(t, p, func(ch chan<- Record) {
		burst := record("cn7", "ipmiseld", "temperature above threshold", syslog.Critical)
		ch <- burst
		for i := 0; i < 4; i++ {
			tick(10 * time.Millisecond)
			ch <- burst
		}
		// A send returns once the source has the record, not once dedup has
		// read the clock for it: wait until all four repeats are suppressed,
		// or the last one can see the jump below and open a new burst.
		for p.Stats().Filtered < 4 {
			time.Sleep(time.Millisecond)
		}
		// Advance past the window and send an unrelated record so the
		// lazy sweep fires inside the pipeline.
		tick(5 * time.Second)
		ch <- record("cn8", "sshd", "accepted publickey", syslog.Info)
	})

	recs := sink.Records()
	if len(recs) != 3 {
		t.Fatalf("delivered = %d records, want 3 (first + summary + unrelated)", len(recs))
	}
	var summary *Record
	for i := range recs {
		if recs[i].Meta["repeated"] != "" {
			summary = &recs[i]
		}
		if recs[i].Meta["downstream"] != "yes" {
			t.Errorf("record skipped downstream filters: %+v", recs[i].Meta)
		}
	}
	if summary == nil || summary.Meta["repeated"] != "4" {
		t.Fatalf("no summary with repeated=4 delivered: %+v", recs)
	}
	s := p.Stats()
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped {
		t.Errorf("accounting invariant broken with injected records: %+v", s)
	}
	// 6 source records + 1 injected summary.
	if s.Ingested != 7 || s.Flushed != 3 || s.Filtered != 4 {
		t.Errorf("stats = %+v, want Ingested=7 Flushed=3 Filtered=4", s)
	}
}

func TestDedupMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	d, clock := fakeClockDedup(time.Second)
	d.Metrics = reg
	r := record("cn1", "kernel", "same", syslog.Warning)
	d.Process(r, nil)
	*clock = clock.Add(time.Millisecond)
	d.Process(r, nil)
	*clock = clock.Add(time.Millisecond)
	d.Process(r, nil)
	*clock = clock.Add(2 * time.Second)
	d.Sweep(*clock)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"dedup_suppressed_total 2",
		"dedup_evicted_total 1",
		"dedup_tracked 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestPipelineMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &MemorySink{}
	p := &Pipeline{
		Sink:    sink,
		Metrics: reg,
		Stages:  []Stage{SeverityFilter(syslog.Warning)},
		Config:  &Config{BatchSize: 4},
	}
	runPipeline(t, p, func(ch chan<- Record) {
		for i := 0; i < 20; i++ {
			sev := syslog.Info // filtered out
			if i%2 == 0 {
				sev = syslog.Critical
			}
			ch <- record("cn1", "kernel", fmt.Sprintf("m%d", i), sev)
		}
	})

	s := p.Stats()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for metric, want := range map[string]int64{
		"pipeline_ingested_total": s.Ingested,
		"pipeline_filtered_total": s.Filtered,
		"pipeline_flushed_total":  s.Flushed,
		"pipeline_dropped_total":  s.Dropped,
		"pipeline_retries_total":  s.Retries,
		"pipeline_queue_depth":    0,
	} {
		line := fmt.Sprintf("%s %d\n", metric, want)
		if !strings.Contains(out, line) {
			t.Errorf("metrics missing %q (Stats=%+v):\n%s", line, s, out)
		}
	}
	if s.Ingested != 20 || s.Filtered != 10 || s.Flushed != 10 {
		t.Errorf("stats = %+v", s)
	}
	if !strings.Contains(out, "pipeline_batch_size_count") ||
		!strings.Contains(out, "pipeline_flush_seconds_count") {
		t.Errorf("histograms missing from exposition:\n%s", out)
	}
}

// TestDedupCloseSummariesSurviveShutdown holds more pending bursts than
// the queue is deep, cancels, and requires every burst summary Close
// emits to reach the sink: stage emissions block on the queue the
// flushers are still draining instead of racing the cancelled context.
func TestDedupCloseSummariesSurviveShutdown(t *testing.T) {
	const bursts = 200
	var plain, summaries atomic.Int64
	sink := SinkFunc(func(_ context.Context, batch []Record) error {
		time.Sleep(100 * time.Microsecond) // keep the queue full at drain
		for _, r := range batch {
			if r.Meta["repeated"] == "1" {
				summaries.Add(1)
			} else {
				plain.Add(1)
			}
		}
		return nil
	})
	p := &Pipeline{
		Source: sourceFunc(func(ctx context.Context, emit func(Record) error) error {
			for i := 0; i < bursts; i++ {
				r := record("cn1", "kernel", fmt.Sprintf("burst %d", i), syslog.Warning)
				for j := 0; j < 2; j++ {
					if err := emit(r); err != nil {
						return err
					}
				}
			}
			<-ctx.Done()
			return ctx.Err()
		}),
		Stages: []Stage{NewDedup(time.Minute)},
		Sink:   sink,
		Config: &Config{BatchSize: 1, FlushInterval: time.Millisecond, QueueDepth: 4},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	if !waitUntil(10*time.Second, func() bool { return plain.Load() == bursts }) {
		t.Fatalf("only %d of %d first occurrences flushed", plain.Load(), bursts)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Dropped != 0 || summaries.Load() != bursts {
		t.Errorf("dropped %d, %d of %d summaries reached the sink", s.Dropped, summaries.Load(), bursts)
	}
	if s.Ingested != 3*bursts || s.Ingested != s.Filtered+s.Flushed+s.Dropped+s.Spooled {
		t.Errorf("accounting = %+v, want Ingested %d and the invariant", s, 3*bursts)
	}
}
