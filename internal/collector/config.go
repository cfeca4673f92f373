package collector

import (
	"errors"
	"fmt"
	"time"
)

// Config groups every pipeline knob behind one validated struct. The
// zero value is fully usable: zero fields take the documented defaults.
// Validate reports every violation at once, not just the first.
type Config struct {
	// BatchSize flushes when a worker's buffer reaches this many records
	// (default 128).
	BatchSize int
	// FlushInterval flushes a partial buffer after this long
	// (default 250ms).
	FlushInterval time.Duration
	// MaxRetries bounds redelivery attempts per batch before the batch
	// is diverted to the spool (or dropped without one) (default 3).
	MaxRetries int
	// RetryBackoff is the initial backoff of the jittered exponential
	// ladder shared by per-batch retries and the circuit breaker's open
	// windows (default 10ms).
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the ladder (default 30s).
	MaxRetryBackoff time.Duration
	// RetryJitter is the random spread fraction on each backoff: a delay
	// is uniform in [base, base*(1+RetryJitter)] (default 0.5, which
	// desynchronizes concurrent flush workers retrying against the same
	// recovering sink). Set resilience.NoJitter (-1) for none.
	RetryJitter float64
	// QueueDepth is the buffered-channel depth between ingest and flush;
	// when full the source's emit blocks (backpressure, default 1024).
	QueueDepth int
	// FlushWorkers is the number of concurrent flusher goroutines
	// (default 1). Each worker keeps its own batch buffer and flush
	// timer, so up to FlushWorkers batches can be in flight against the
	// sink at once; the sink must then be safe for concurrent Write
	// calls (StoreSink and core.Service both are). With more than one
	// worker, batch delivery order is not the arrival order.
	FlushWorkers int
	// WriteTimeout bounds each individual Sink.Write attempt via its
	// context (default 30s). Shutdown never cancels an in-flight
	// attempt, so this is also the bound on shutdown latency.
	WriteTimeout time.Duration
	// BreakerThreshold is how many consecutive failed write attempts
	// trip the circuit breaker open (default 5). While open, batches
	// divert straight to the spool instead of hammering the sink.
	BreakerThreshold int
	// Seed seeds the jitter source (default 1), so retry schedules are
	// reproducible and differently seeded pipelines desynchronize.
	Seed int64
	// SpoolDir, when set, enables the disk spill queue: batches the sink
	// refuses are appended to a WAL under this directory and replayed in
	// order when the sink recovers (including across process restarts).
	SpoolDir string
	// SpoolMaxBytes bounds the spool; exceeding it evicts the oldest
	// segment (evicted records count as Dropped). 0 means unbounded.
	SpoolMaxBytes int64
	// ReplayInterval is how often the replayer polls the spool for
	// frames to push back into the sink (default 50ms).
	ReplayInterval time.Duration
	// SweepInterval is how often the pipeline calls Sweep(now) on stages
	// implementing the sweep lifecycle hook (default 1s). Negative
	// disables the ticker, leaving such stages to their own lazy sweeps;
	// it is therefore the one duration knob where a negative value is
	// meaningful rather than invalid.
	SweepInterval time.Duration
}

// Validate checks the configuration and returns every violation joined
// into one error (errors.Join), or nil. Zero values are not violations —
// they mean "use the default".
func (c Config) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("collector: "+format, args...))
	}
	if c.BatchSize < 0 {
		bad("BatchSize %d is negative", c.BatchSize)
	}
	if c.FlushInterval < 0 {
		bad("FlushInterval %v is negative", c.FlushInterval)
	}
	if c.MaxRetries < 0 {
		bad("MaxRetries %d is negative", c.MaxRetries)
	}
	if c.RetryBackoff < 0 {
		bad("RetryBackoff %v is negative", c.RetryBackoff)
	}
	if c.MaxRetryBackoff < 0 {
		bad("MaxRetryBackoff %v is negative", c.MaxRetryBackoff)
	}
	if c.MaxRetryBackoff > 0 && c.RetryBackoff > 0 && c.MaxRetryBackoff < c.RetryBackoff {
		bad("MaxRetryBackoff %v is below RetryBackoff %v", c.MaxRetryBackoff, c.RetryBackoff)
	}
	if c.RetryJitter < -1 {
		bad("RetryJitter %v is below resilience.NoJitter (-1)", c.RetryJitter)
	}
	if c.QueueDepth < 0 {
		bad("QueueDepth %d is negative", c.QueueDepth)
	}
	if c.FlushWorkers < 0 {
		bad("FlushWorkers %d is negative", c.FlushWorkers)
	}
	if c.WriteTimeout < 0 {
		bad("WriteTimeout %v is negative", c.WriteTimeout)
	}
	if c.BreakerThreshold < 0 {
		bad("BreakerThreshold %d is negative", c.BreakerThreshold)
	}
	if c.SpoolMaxBytes < 0 {
		bad("SpoolMaxBytes %d is negative", c.SpoolMaxBytes)
	}
	if c.SpoolMaxBytes > 0 && c.SpoolDir == "" {
		bad("SpoolMaxBytes %d set without SpoolDir", c.SpoolMaxBytes)
	}
	if c.ReplayInterval < 0 {
		bad("ReplayInterval %v is negative", c.ReplayInterval)
	}
	return errors.Join(errs...)
}

// withDefaults returns c with the documented default for every field
// still unset. It runs after Validate, so every field is non-negative
// here; the <= guards are only belt and braces.
func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 250 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.MaxRetryBackoff <= 0 {
		c.MaxRetryBackoff = 30 * time.Second
	}
	if c.MaxRetryBackoff < c.RetryBackoff {
		c.MaxRetryBackoff = c.RetryBackoff
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.FlushWorkers <= 0 {
		c.FlushWorkers = 1
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ReplayInterval <= 0 {
		c.ReplayInterval = 50 * time.Millisecond
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = time.Second
	}
	return c
}
