package collector

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hetsyslog/internal/obs"
)

// Dedup suppresses repeated identical messages per (host, app, content)
// within a window, emitting a classic "message repeated N times" record
// when the burst ends — the behaviour rsyslogd applies before forwarding,
// which keeps a thermal storm from flooding the store (§4.5.1 surges can
// exceed thousands of identical lines per minute).
//
// A burst can end two ways. If the message recurs after the window, the
// recurrence passes annotated with Meta["repeated"] carrying the count it
// absorbed. If it never recurs, the entry is evicted once its window
// expires — by the lazy sweep Process runs at most once per window, or by
// an explicit Sweep — and a copy of the burst's first record, annotated
// the same way, is handed to the emit function Process received. Eviction
// bounds memory: without it every distinct (host, app, content) triple
// ever seen would live forever.
type Dedup struct {
	// Window is how long a message suppresses its duplicates
	// (default 1s).
	Window time.Duration
	// Now allows tests to control the clock.
	Now func() time.Time

	// Metrics optionally publishes the filter's counters (suppressed,
	// evicted, live tracked entries) into a shared registry; set it
	// before first use.
	Metrics *obs.Registry

	metricsOnce     sync.Once
	suppressedTotal *obs.Counter
	evictedTotal    *obs.Counter

	mu        sync.Mutex
	last      map[string]*dedupEntry
	lastSweep time.Time
	// emit is the first non-nil emit function Process was handed (the
	// pipeline passes one stable closure, see Stage), retained so Sweep
	// and Close can deliver summaries.
	emit func(Record)
	// emitSet lets Process skip the emit-install lock once one is
	// wired, keeping the per-record path at a single lock acquisition.
	emitSet atomic.Bool
}

type dedupEntry struct {
	first      time.Time
	suppressed int
	// rec is the burst's first record, kept so an expired burst can be
	// re-emitted with its "repeated" annotation.
	rec Record
}

// NewDedup returns a Dedup stage with the given window.
func NewDedup(window time.Duration) *Dedup {
	if window <= 0 {
		window = time.Second
	}
	return &Dedup{Window: window, last: make(map[string]*dedupEntry)}
}

func (d *Dedup) now() time.Time {
	if d.Now != nil {
		return d.Now()
	}
	return time.Now()
}

func (d *Dedup) initMetrics() {
	d.metricsOnce.Do(func() {
		d.suppressedTotal = d.Metrics.Counter("dedup_suppressed_total",
			"duplicate records suppressed inside the window")
		d.evictedTotal = d.Metrics.Counter("dedup_evicted_total",
			"expired burst entries evicted from the tracking map")
		if d.Metrics != nil {
			d.Metrics.GaugeFunc("dedup_tracked",
				"live (host, app, content) entries being tracked",
				func() int64 {
					d.mu.Lock()
					defer d.mu.Unlock()
					return int64(len(d.last))
				})
		}
	})
}

// Close implements the Stage close lifecycle hook: it flushes every
// tracked burst — all entries expire as of now+Window — so suppressed
// repeats are summarized at pipeline shutdown rather than lost.
func (d *Dedup) Close() {
	d.Sweep(d.now().Add(d.Window))
}

// Process implements Stage. The first occurrence passes; duplicates
// inside the window are dropped; the first occurrence after the window
// passes with a Meta["repeated"] annotation carrying the suppressed
// count. At most once per window Process also sweeps the tracking map,
// evicting expired entries and emitting summaries for bursts that never
// recurred. The summaries of expired bursts go to emit, which runs
// outside Dedup's lock.
func (d *Dedup) Process(r Record, emit func(Record)) (Record, bool) {
	if emit != nil && !d.emitSet.Load() {
		d.mu.Lock()
		d.emit = emit
		d.mu.Unlock()
		d.emitSet.Store(true)
	}
	if r.Msg == nil {
		return r, false
	}
	d.initMetrics()
	key := r.Msg.Hostname + "\x00" + r.Msg.AppName + "\x00" + r.Msg.Content
	now := d.now()

	d.mu.Lock()
	e, ok := d.last[key]
	var keep bool
	if !ok || now.Sub(e.first) >= d.Window {
		var repeated int
		if ok {
			repeated = e.suppressed
		}
		// The entry outlives this record's trip through the pipeline (its
		// summary may be emitted a window later), so a transient message —
		// pooled or leased, recycled after the pipeline releases the
		// record — must be deep-copied. One clone per burst, not per
		// duplicate.
		rec := r
		if rec.Msg != nil && rec.Msg.Transient() {
			rec.Msg = rec.Msg.Clone()
		}
		d.last[key] = &dedupEntry{first: now, rec: rec}
		if repeated > 0 {
			r = r.WithMeta("repeated", strconv.Itoa(repeated))
		}
		keep = true
	} else {
		e.suppressed++
		d.suppressedTotal.Inc()
	}
	var expired []Record
	if now.Sub(d.lastSweep) >= d.Window {
		expired, _ = d.sweepLocked(now)
	}
	d.mu.Unlock()

	d.emitAll(expired)
	return r, keep
}

// Sweep evicts every entry whose window has expired as of now, emitting
// summary records for bursts that absorbed duplicates, and returns the
// number of entries evicted. Process runs the same sweep lazily at most
// once per window; call Sweep directly to bound the map during lulls
// (e.g. from a ticker) or to flush at shutdown with a far-future now.
func (d *Dedup) Sweep(now time.Time) int {
	d.initMetrics()
	d.mu.Lock()
	expired, evicted := d.sweepLocked(now)
	d.mu.Unlock()
	d.emitAll(expired)
	return evicted
}

// sweepLocked removes expired entries, returning the summary records to
// emit and the eviction count. Caller holds d.mu.
func (d *Dedup) sweepLocked(now time.Time) ([]Record, int) {
	var out []Record
	evicted := 0
	for key, e := range d.last {
		if now.Sub(e.first) < d.Window {
			continue
		}
		if e.suppressed > 0 {
			out = append(out, e.rec.WithMeta("repeated", strconv.Itoa(e.suppressed)))
		}
		delete(d.last, key)
		evicted++
	}
	d.evictedTotal.Add(int64(evicted))
	d.lastSweep = now
	return out, evicted
}

// emitAll delivers expired-burst summaries outside the lock.
func (d *Dedup) emitAll(expired []Record) {
	if len(expired) == 0 {
		return
	}
	d.mu.Lock()
	emit := d.emit
	d.mu.Unlock()
	if emit == nil {
		return
	}
	for _, r := range expired {
		emit(r)
	}
}

// Suppressed returns the number of currently-tracked suppressed
// duplicates (diagnostics; the cumulative count is the
// dedup_suppressed_total counter).
func (d *Dedup) Suppressed() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, e := range d.last {
		n += e.suppressed
	}
	return n
}

// Tracked returns how many (host, app, content) entries are live.
func (d *Dedup) Tracked() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.last)
}

var _ SweepingStage = (*Dedup)(nil)
var _ ClosingStage = (*Dedup)(nil)
