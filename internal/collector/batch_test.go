package collector

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetsyslog/internal/obs"
	"hetsyslog/internal/syslog"
)

// sliceBatchSource is a BatchSource feeding fixed batches, mixing the
// single-record and batch emit paths like a real listener under light load.
type sliceBatchSource struct {
	batches  [][]Record
	ranBatch atomic.Bool
}

func (s *sliceBatchSource) Run(ctx context.Context, emit func(Record) error) error {
	for _, b := range s.batches {
		for _, r := range b {
			if err := emit(r); err != nil {
				return nil
			}
		}
	}
	return nil
}

func (s *sliceBatchSource) RunBatch(ctx context.Context, emit func(Record) error,
	emitBatch func([]Record) error) error {
	s.ranBatch.Store(true)
	for i, b := range s.batches {
		if i%3 == 2 { // every third batch goes record-by-record
			for _, r := range b {
				if err := emit(r); err != nil {
					return nil
				}
			}
			continue
		}
		if err := emitBatch(b); err != nil {
			return nil
		}
	}
	return nil
}

func makeBatches(nBatches, perBatch int) [][]Record {
	out := make([][]Record, nBatches)
	i := 0
	for b := range out {
		batch := make([]Record, perBatch)
		for j := range batch {
			sev := syslog.Info
			if i%4 == 0 {
				sev = syslog.Debug // filtered out below
			}
			batch[j] = record(fmt.Sprintf("cn%d", i%8), "kernel",
				fmt.Sprintf("batched message %d", i), sev)
			i++
		}
		out[b] = batch
	}
	return out
}

// TestPipelinePrefersBatchSource: a source implementing BatchSource is
// driven through RunBatch, the filter chain still applies per record, and
// the accounting invariant holds exactly.
func TestPipelinePrefersBatchSource(t *testing.T) {
	const nBatches, perBatch = 12, 10
	src := &sliceBatchSource{batches: makeBatches(nBatches, perBatch)}
	sink := &MemorySink{}
	p := &Pipeline{
		Source: src, Sink: sink,
		Stages: []Stage{SeverityFilter(syslog.Info)},
		Config: &Config{BatchSize: 16, FlushInterval: time.Millisecond},
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !src.ranBatch.Load() {
		t.Fatal("pipeline used Run instead of RunBatch for a BatchSource")
	}
	total := int64(nBatches * perBatch)
	filtered := int64(nBatches * perBatch / 4) // every 4th record is Debug
	s := p.Stats()
	if s.Ingested != total || s.Filtered != filtered || s.Dropped != 0 {
		t.Errorf("stats = %+v, want Ingested=%d Filtered=%d", s, total, filtered)
	}
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped+s.Spooled {
		t.Errorf("invariant broken: %+v", s)
	}
	if got := int64(len(sink.Records())); got != s.Flushed {
		t.Errorf("sink has %d records, Flushed = %d", got, s.Flushed)
	}
}

// TestBatchRefusalCountsDropped cancels the pipeline while the flusher is
// blocked and the queue is full, so batch handoffs get refused — every
// refused record must land in Dropped and keep the invariant exact.
func TestBatchRefusalCountsDropped(t *testing.T) {
	release := make(chan struct{})
	blocking := SinkFunc(func(ctx context.Context, batch []Record) error {
		<-release
		return nil
	})
	src := &sliceBatchSource{batches: makeBatches(50, 8)}
	p := &Pipeline{
		Source: src, Sink: blocking,
		Config: &Config{BatchSize: 2, FlushInterval: time.Millisecond, QueueDepth: 2},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Dropped == 0 {
		t.Error("expected refused batch records to count as Dropped")
	}
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped+s.Spooled {
		t.Errorf("invariant broken: %+v", s)
	}
}

// TestSyslogSourceBatchedTCPEndToEnd drives the full batched path — one
// TCP write carrying many frames, listener drain, BatchHandler, emitBatch,
// chunked queue, sink — and checks exact counts, per-record content, and
// the queue-depth gauge returning to zero.
func TestSyslogSourceBatchedTCPEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	src := NewSyslogSource("", "127.0.0.1:0")
	src.MaxBatch = 8
	src.Metrics = reg
	sink := &MemorySink{}
	p := &Pipeline{
		Source: src, Sink: sink, Metrics: reg,
		Config: &Config{BatchSize: 16, FlushInterval: 5 * time.Millisecond},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	<-src.Ready()

	conn, err := net.Dial("tcp", src.BoundTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 100
	var sb strings.Builder
	for i := 0; i < n; i++ {
		wire := syslog.FormatRFC5424(&syslog.Message{
			Facility: syslog.Kern, Severity: syslog.Warning,
			Timestamp: time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC),
			Hostname:  "cn42", AppName: "kernel",
			Content: fmt.Sprintf("thermal event %d", i),
		})
		fmt.Fprintf(&sb, "%d %s", len(wire), wire)
	}
	if _, err := conn.Write([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	if !sink.WaitFor(n, 5*time.Second) {
		t.Fatalf("only %d records arrived", len(sink.Records()))
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	s := p.Stats()
	if s.Ingested != n || s.Flushed != n || s.Dropped != 0 || s.Filtered != 0 {
		t.Errorf("stats = %+v, want %d clean deliveries", s, n)
	}
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped+s.Spooled {
		t.Errorf("invariant broken: %+v", s)
	}
	recs := sink.Records()
	for i, r := range recs {
		want := fmt.Sprintf("thermal event %d", i)
		if r.Msg == nil || r.Msg.Content != want || r.Msg.Hostname != "cn42" {
			t.Fatalf("record %d = %+v, want content %q", i, r.Msg, want)
		}
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pipeline_queue_depth 0",
		fmt.Sprintf("syslog_received_total %d", n),
		"pipeline_ingested_total 100",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
