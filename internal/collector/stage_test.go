package collector

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lifecycleStage is a Stage exercising every optional hook: it retains
// the emit function Process receives, counts Sweep calls and emits one
// record per sweep, and emits one final record from Close.
type lifecycleStage struct {
	mu     sync.Mutex
	emit   func(Record)
	sweeps int
	closed bool
}

func (s *lifecycleStage) Process(r Record, emit func(Record)) (Record, bool) {
	s.mu.Lock()
	s.emit = emit
	s.mu.Unlock()
	return r, true
}

func (s *lifecycleStage) Sweep(_ time.Time) int {
	s.mu.Lock()
	s.sweeps++
	emit := s.emit
	s.mu.Unlock()
	if emit != nil {
		emit(Record{Tag: "sweep"})
	}
	return 0
}

func (s *lifecycleStage) Close() {
	s.mu.Lock()
	s.closed = true
	emit := s.emit
	s.mu.Unlock()
	if emit != nil {
		emit(Record{Tag: "close"})
	}
}

// TestStageEmitAccounting locks down the emission contract: records a
// stage injects run through the rest of the chain, count as Ingested,
// and the invariant Ingested == Filtered + Flushed + Dropped + Spooled
// holds exactly. A downstream stage must see injected records; the
// injecting stage must not see its own.
func TestStageEmitAccounting(t *testing.T) {
	const n = 50
	var downstreamSaw atomic.Int64
	duplicator := StageFunc(func(r Record, emit func(Record)) (Record, bool) {
		if r.Tag == "dup" {
			emit(Record{Tag: "injected"})
		}
		if r.Tag == "injected" {
			t.Error("injecting stage saw its own emission")
		}
		return r, true
	})
	counter := StageFunc(func(r Record, _ func(Record)) (Record, bool) {
		if r.Tag == "injected" {
			downstreamSaw.Add(1)
		}
		return r, r.Tag != "drop"
	})
	var flushed atomic.Int64
	p := &Pipeline{
		Source: sourceFunc(func(_ context.Context, emit func(Record) error) error {
			for i := 0; i < n; i++ {
				tag := "plain"
				switch i % 5 {
				case 0:
					tag = "dup"
				case 1:
					tag = "drop"
				}
				if err := emit(Record{Tag: tag}); err != nil {
					return err
				}
			}
			return nil
		}),
		Stages: []Stage{duplicator, counter},
		Sink: SinkFunc(func(_ context.Context, batch []Record) error {
			flushed.Add(int64(len(batch)))
			return nil
		}),
		Config: &Config{BatchSize: 8, FlushInterval: time.Millisecond},
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	const dups, drops = n / 5, n / 5
	if got := downstreamSaw.Load(); got != dups {
		t.Errorf("downstream stage saw %d injected records, want %d", got, dups)
	}
	s := p.Stats()
	if s.Ingested != n+dups {
		t.Errorf("Ingested = %d, want %d source + %d injected", s.Ingested, n, dups)
	}
	if s.Filtered != drops {
		t.Errorf("Filtered = %d, want %d", s.Filtered, drops)
	}
	if s.Flushed != flushed.Load() || s.Flushed != n+dups-drops {
		t.Errorf("Flushed = %d (sink saw %d), want %d", s.Flushed, flushed.Load(), n+dups-drops)
	}
	if s.Ingested != s.Filtered+s.Flushed+s.Dropped+s.Spooled {
		t.Errorf("invariant broken: %+v", s)
	}
}

// TestStageSweepAndCloseLifecycle drives the clock-driven sweep ticker
// and the shutdown Close hook: sweeps happen while the source idles,
// stop at shutdown, Close runs exactly once before the queue closes, and
// records emitted from both hooks are delivered and accounted.
func TestStageSweepAndCloseLifecycle(t *testing.T) {
	stage := &lifecycleStage{}
	var mu sync.Mutex
	tags := map[string]int{}
	p := &Pipeline{
		Source: sourceFunc(func(ctx context.Context, emit func(Record) error) error {
			if err := emit(Record{Tag: "plain"}); err != nil {
				return err
			}
			// Idle long enough for several sweep ticks.
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
			}
			return nil
		}),
		Stages: []Stage{stage},
		Sink: SinkFunc(func(_ context.Context, batch []Record) error {
			mu.Lock()
			for _, r := range batch {
				tags[r.Tag]++
			}
			mu.Unlock()
			return nil
		}),
		Config: &Config{
			BatchSize: 4, FlushInterval: time.Millisecond,
			SweepInterval: 5 * time.Millisecond,
		},
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stage.mu.Lock()
	sweeps := stage.sweeps
	closed := stage.closed
	stage.mu.Unlock()
	if sweeps == 0 {
		t.Fatal("sweep ticker never drove Sweep")
	}
	if !closed {
		t.Fatal("Close hook never ran")
	}
	mu.Lock()
	defer mu.Unlock()
	if tags["plain"] != 1 || tags["close"] != 1 || tags["sweep"] != sweeps {
		t.Errorf("delivered %v, want 1 plain, 1 close, %d sweep", tags, sweeps)
	}
	s := p.Stats()
	if s.Ingested != int64(1+sweeps+1) || s.Ingested != s.Filtered+s.Flushed+s.Dropped+s.Spooled {
		t.Errorf("accounting = %+v, want Ingested %d and the invariant", s, 1+sweeps+1)
	}
}

// TestStageSweepDisabled: a negative SweepInterval turns the ticker off.
func TestStageSweepDisabled(t *testing.T) {
	stage := &lifecycleStage{}
	p := &Pipeline{
		Source: sourceFunc(func(_ context.Context, emit func(Record) error) error {
			time.Sleep(20 * time.Millisecond)
			return nil
		}),
		Stages: []Stage{stage},
		Sink:   SinkFunc(func(_ context.Context, _ []Record) error { return nil }),
		Config: &Config{SweepInterval: -1, FlushInterval: time.Millisecond},
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stage.mu.Lock()
	defer stage.mu.Unlock()
	if stage.sweeps != 0 {
		t.Errorf("ticker ran %d sweeps with SweepInterval < 0", stage.sweeps)
	}
}
