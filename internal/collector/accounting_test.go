package collector

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsyslog/internal/obs"
)

// hammerBatchSource drives emitBatch from several goroutines at once,
// modelling the syslog listener's concurrent per-connection read loops.
// Every worker loops until the pipeline refuses a batch with
// ErrPipelineClosed, so by the time RunBatch returns each worker has
// observed at least one shutdown refusal. workersDone is closed when the
// last worker exits.
type hammerBatchSource struct {
	workers     int
	batchLen    int
	workersDone chan struct{}
}

func (s *hammerBatchSource) Run(ctx context.Context, emit func(Record) error) error {
	return s.RunBatch(ctx, emit, func(rs []Record) error {
		for _, r := range rs {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *hammerBatchSource) RunBatch(ctx context.Context, _ func(Record) error,
	emitBatch func([]Record) error) error {
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]Record, s.batchLen)
			for i := range batch {
				batch[i] = Record{Tag: fmt.Sprintf("worker%d", w)}
			}
			// One record per batch is marked for the filter chain, so the
			// invariant is exercised with Filtered > 0 too.
			batch[0].Tag = "drop"
			for emitBatch(batch) == nil {
			}
		}(w)
	}
	wg.Wait()
	close(s.workersDone)
	return nil
}

// TestAccountingInvariantUnderConcurrentRefusal locks down the pipeline's
// accounting contract under the batched handoff: with several goroutines
// hammering emitBatch, a full queue, a sink that blocks until released,
// and a mid-traffic shutdown forcing concurrent batch refusals, every
// record must still land in exactly one bucket —
// Ingested == Filtered + Flushed + Dropped + Spooled — and the
// queue-depth gauge must return to zero once Run returns. Run under
// -race in CI, this doubles as the regression test for torn counter
// updates on the batched path.
func TestAccountingInvariantUnderConcurrentRefusal(t *testing.T) {
	const workers = 4
	gate := make(chan struct{})
	var sinkGot atomic.Int64
	sink := SinkFunc(func(_ context.Context, batch []Record) error {
		<-gate
		sinkGot.Add(int64(len(batch)))
		return nil
	})
	src := &hammerBatchSource{
		workers:     workers,
		batchLen:    8,
		workersDone: make(chan struct{}),
	}
	reg := obs.NewRegistry()
	p := &Pipeline{
		Source:  src,
		Sink:    sink,
		Metrics: reg,
		Config: &Config{
			BatchSize:     8,
			FlushInterval: time.Millisecond,
			QueueDepth:    2,
			FlushWorkers:  2,
			MaxRetries:    1,
		},
		Stages: []Stage{FilterFunc(func(r Record) (Record, bool) {
			return r, r.Tag != "drop"
		})},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()

	// Let traffic build until the blocked sink has the queue saturated,
	// then shut down mid-flight: the workers' in-progress emitBatch calls
	// must be refused and accounted as Dropped.
	deadline := time.Now().Add(5 * time.Second)
	// The bound is what backpressure admits with the sink blocked: the
	// queue's chunks plus the flushers' buffers plus one in-flight batch
	// per worker (~80 records here), so wait for a level safely below
	// that saturation point.
	for p.Stats().Ingested < 64 {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never ingested enough traffic: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	// Every worker exits only after a refusal, so Dropped > 0 is
	// guaranteed before the gate opens.
	select {
	case <-src.workersDone:
	case <-time.After(5 * time.Second):
		t.Fatal("source workers did not observe pipeline refusal")
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}

	st := p.Stats()
	if st.Ingested != st.Filtered+st.Flushed+st.Dropped+st.Spooled {
		t.Errorf("accounting invariant broken: Ingested=%d != Filtered=%d + Flushed=%d + Dropped=%d + Spooled=%d",
			st.Ingested, st.Filtered, st.Flushed, st.Dropped, st.Spooled)
	}
	if st.Dropped == 0 {
		t.Error("expected refused batches to be accounted as Dropped")
	}
	if st.Filtered == 0 {
		t.Error("expected filtered records in the mix")
	}
	if got := sinkGot.Load(); got != st.Flushed {
		t.Errorf("sink received %d records but Flushed=%d", got, st.Flushed)
	}
	if depth := reg.Gauge("pipeline_queue_depth",
		"records buffered between ingest and flush").Value(); depth != 0 {
		t.Errorf("pipeline_queue_depth = %d after Run returned, want 0", depth)
	}
}
