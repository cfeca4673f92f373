// Package detect is the streaming security-analytics stage of the
// pipeline: cross-message detectors that watch the record flow between
// the collector's edge and the store for attack shapes no per-message
// classifier can see — rate spikes against a learned per-source baseline,
// failed-password bursts, username sprays, and scan-like probing. The
// paper's taxonomy has an Intrusion Detection category but classifies
// strictly per message; this stage covers the cross-message half.
//
// The Detector is a collector.Stage. Alerts leave it two ways, mirroring
// how Dedup handles "message repeated N times" summaries: as synthetic
// alert Records emitted downstream — classified, stored, queryable, and
// visible to the cluster coordinator like any other record — and as
// monitor.AlertManager notifications carrying the detector name and a
// confidence score.
//
// Memory is O(1) per source and bounded overall. Per-source state is a
// fixed-size ring of bucket counts plus exponentially-decayed
// mean/variance (never batch maps keyed by minute), the distinct-value
// counters are fixed-capacity open-addressing sets, and the source
// tables are sharded and capped (MaxSources) with idle eviction driven
// by the pipeline's sweep lifecycle — the same pattern as Dedup's window
// sweep. The steady-state evaluation path allocates nothing; inserts of
// never-seen sources, alert emission and — with Config.Classify — the
// category stamped on each record are the only allocating events.
package detect

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"hetsyslog/internal/collector"
	"hetsyslog/internal/monitor"
	"hetsyslog/internal/obs"
	"hetsyslog/internal/syslog"
	"hetsyslog/internal/taxonomy"
)

// Detector kinds, indexing the fired/suppressed counter arrays.
const (
	kindRate = iota
	kindBurst
	kindSpray
	kindScan
	numKinds
)

// kindNames are the wire names used in Meta["detector"], alert
// attribution, metric labels and /detect/state.
var kindNames = [numKinds]string{"rate", "burst", "spray", "scan"}

// Config parametrizes a Detector. The zero value is usable: every field
// falls back to its documented default.
type Config struct {
	// Window is the sliding detection window (default 1m): the rate ring
	// spans one window, the sensitive-pattern counters reset each
	// window, and a source that fired re-arms after one window (the
	// per-source alert cooldown).
	Window time.Duration
	// Buckets subdivides the rate window's ring (default 6). More
	// buckets mean finer spike localization at a few bytes per source.
	Buckets int
	// ZScore is the rate-spike threshold in decayed standard deviations
	// above the per-source baseline (default 3).
	ZScore float64
	// MinCount is the minimum current-bucket count before a rate spike
	// is considered (default 10) — a large z-score over a near-zero
	// baseline is noise, not a surge.
	MinCount int
	// Decay is the exponential-decay factor folding each completed
	// bucket into the baseline mean/variance, in (0, 1) (default 0.3).
	// Higher values track shifts faster but forgive sustained floods
	// sooner.
	Decay float64
	// MaxSources caps tracked sources per table (rate and sensitive
	// each); inserting past the cap evicts the idlest of a bounded
	// sample of the target shard (default 1<<20).
	MaxSources int
	// IdleTTL evicts sources unseen this long during sweeps
	// (default 10*Window).
	IdleTTL time.Duration
	// Shards is the source-table shard count, rounded up to a power of
	// two (default 16). More shards cut lock contention under
	// multi-goroutine ingest.
	Shards int
	// BurstThreshold is how many auth failures on one host within one
	// window raise a failed-password-burst alert (default 6).
	BurstThreshold int
	// SprayThreshold is how many distinct usernames with auth failures
	// on one host within one window raise a spray alert (default 5).
	SprayThreshold int
	// ScanThreshold is how many distinct client ports making
	// pre-authentication connections to one host within one window raise
	// a scan alert (default 12).
	ScanThreshold int
	// DisableRate/DisableSensitive turn off one detector family.
	DisableRate      bool
	DisableSensitive bool
	// Classify optionally maps a message text to its taxonomy category —
	// wire it to core.Service.CategoryOf so rate baselines are keyed per
	// (host, category) by the same model the sink applies. Its answer
	// becomes the record's category downstream: the detector sets
	// Meta["category"] on a record that carries none, and core.Service
	// stores a valid pre-set category without classifying again. Left nil,
	// the category dimension degrades to the syslog app name.
	Classify func(text string) taxonomy.Category
	// Alerts, when set, receives a ConsiderAlert call for every fired
	// alert, with the detector name and confidence attached.
	Alerts *monitor.AlertManager
	// Metrics optionally publishes the detector's counters, the
	// source-table gauge and the evaluation-latency histogram.
	Metrics *obs.Registry
	// Now allows tests to control the clock.
	Now func() time.Time
}

// withDefaults resolves every unset knob.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.Buckets <= 0 {
		c.Buckets = 6
	}
	if c.ZScore <= 0 {
		c.ZScore = 3
	}
	if c.MinCount <= 0 {
		c.MinCount = 10
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 0.3
	}
	if c.MaxSources <= 0 {
		c.MaxSources = 1 << 20
	}
	if c.IdleTTL <= 0 {
		c.IdleTTL = 10 * c.Window
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.BurstThreshold <= 0 {
		c.BurstThreshold = 6
	}
	if c.SprayThreshold <= 0 {
		c.SprayThreshold = 5
	}
	if c.ScanThreshold <= 0 {
		c.ScanThreshold = 12
	}
	return c
}

// Detector is the streaming detection stage. Create one with New; it is
// safe for concurrent Process calls and implements
// collector.SweepingStage.
type Detector struct {
	cfg    Config
	window int64 // Window in nanoseconds
	bucket int64 // Window/Buckets in nanoseconds
	rate   *rateTable
	sens   *sensTable

	evaluated  *obs.Counter
	evicted    *obs.Counter
	fired      [numKinds]*obs.Counter
	suppressed [numKinds]*obs.Counter
	evalLat    *obs.Histogram
}

// New builds a Detector from cfg.
func New(cfg Config) (*Detector, error) {
	if cfg.DisableRate && cfg.DisableSensitive {
		return nil, errors.New("detect: both detector families disabled")
	}
	cfg = cfg.withDefaults()
	d := &Detector{
		cfg:    cfg,
		window: int64(cfg.Window),
		bucket: int64(cfg.Window) / int64(cfg.Buckets),
	}
	if d.bucket <= 0 {
		return nil, fmt.Errorf("detect: window %v too small for %d buckets", cfg.Window, cfg.Buckets)
	}
	shards := 1
	for shards < cfg.Shards {
		shards <<= 1
	}
	perShard := (cfg.MaxSources + shards - 1) / shards
	if perShard < 1 {
		perShard = 1
	}
	if !cfg.DisableRate {
		d.rate = newRateTable(shards, perShard)
	}
	if !cfg.DisableSensitive {
		d.sens = newSensTable(shards, perShard)
	}

	d.evaluated = cfg.Metrics.Counter("detect_evaluated_total",
		"records evaluated by the streaming detectors")
	d.evicted = cfg.Metrics.Counter("detect_evicted_total",
		"detector sources evicted (idle sweep or table at capacity)")
	for k := 0; k < numKinds; k++ {
		d.fired[k] = cfg.Metrics.Counter(
			`detect_fired_total{detector="`+kindNames[k]+`"}`,
			"alerts fired by the "+kindNames[k]+" detector")
		d.suppressed[k] = cfg.Metrics.Counter(
			`detect_suppressed_total{detector="`+kindNames[k]+`"}`,
			"alerts suppressed by the "+kindNames[k]+" detector's per-source cooldown")
	}
	if cfg.Metrics != nil {
		cfg.Metrics.GaugeFunc("detect_sources",
			"sources tracked across the detector tables",
			func() int64 { return int64(d.Sources()) })
		d.evalLat = cfg.Metrics.Histogram("detect_eval_seconds",
			"streaming-detector evaluation latency per record", obs.LatencyBuckets)
	}
	return d, nil
}

func (d *Detector) now() time.Time {
	if d.cfg.Now != nil {
		return d.cfg.Now()
	}
	return time.Now()
}

// Process implements collector.Stage. Every record passes through —
// dropping is the filter chain's business — while the detectors fold it
// into their per-source state; with Config.Classify it leaves carrying its
// category. Any alerts it tips over a threshold are emitted downstream and
// offered to the alert manager.
func (d *Detector) Process(r collector.Record, emit func(collector.Record)) (collector.Record, bool) {
	if r.Msg == nil {
		return r, true
	}
	var start time.Time
	if d.evalLat != nil {
		start = time.Now()
	}
	now := d.now()
	nowNS := now.UnixNano()
	// Alerts fire from under shard locks into a fixed-size list and are
	// delivered after all detector state is updated, so emission (which
	// re-enters the chain downstream) never runs locked.
	var fired firedList
	if d.rate != nil {
		cat := r.Msg.AppName
		if d.cfg.Classify != nil {
			cat = string(d.cfg.Classify(r.Msg.Content))
			if _, labeled := r.Meta["category"]; !labeled {
				r = r.WithMeta("category", cat)
			}
		}
		d.rate.observe(d, r.Msg.Hostname, cat, nowNS, &fired)
	}
	if d.sens != nil {
		d.sens.observe(d, r.Msg.Hostname, r.Msg.Content, nowNS, &fired)
	}
	d.evaluated.Inc()
	if d.evalLat != nil {
		d.evalLat.ObserveDuration(time.Since(start))
	}
	for i := 0; i < fired.n; i++ {
		d.deliver(&fired.a[i], now, emit)
	}
	return r, true
}

// Sweep implements the pipeline's sweep lifecycle hook: it evicts
// sources unseen for IdleTTL from both tables, bounding memory through
// lulls, and returns the eviction count.
func (d *Detector) Sweep(now time.Time) int {
	cutoff := now.UnixNano() - int64(d.cfg.IdleTTL)
	n := 0
	if d.rate != nil {
		n += d.rate.sweep(cutoff)
	}
	if d.sens != nil {
		n += d.sens.sweep(cutoff)
	}
	if n > 0 {
		d.evicted.Add(int64(n))
	}
	return n
}

// Sources reports how many sources the detector tables currently track
// (rate and sensitive combined) — the value behind the detect_sources
// gauge.
func (d *Detector) Sources() int {
	n := 0
	if d.rate != nil {
		n += d.rate.len()
	}
	if d.sens != nil {
		n += d.sens.len()
	}
	return n
}

// firedAlert is one threshold crossing, recorded under a shard lock and
// rendered into a Record afterwards. host/category alias the source
// entry's own cloned strings, so they stay valid after the lock drops.
type firedAlert struct {
	kind      int
	host      string
	category  string
	count     int
	users     int
	ascending int
	baseline  float64
	z         float64
	conf      float64
}

// firedList collects the alerts one record can trip — at most one per
// detector kind — without allocating.
type firedList struct {
	n int
	a [numKinds]firedAlert
}

func (l *firedList) add(a firedAlert) {
	if l.n < len(l.a) {
		l.a[l.n] = a
		l.n++
	}
}

// deliver renders one fired alert into a synthetic Record, emits it
// downstream (where it is classified under the pre-labeled category,
// stored, and queryable like any record), and offers it to the alert
// manager with detector attribution and confidence.
func (d *Detector) deliver(f *firedAlert, now time.Time, emit func(collector.Record)) {
	d.fired[f.kind].Inc()
	var text string
	facility := syslog.AuthPriv
	severity := syslog.Alert
	cat := taxonomy.IntrusionDetection
	switch f.kind {
	case kindRate:
		text = fmt.Sprintf("rate spike: %d %q messages from %s in the current bucket (baseline %.1f/bucket, z=%.1f)",
			f.count, f.category, f.host, f.baseline, f.z)
		facility = syslog.Daemon
		severity = syslog.Warning
		// A spike is an anomaly in whatever category surged; only an
		// unlabeled surge falls back to Intrusion Detection.
		if c := taxonomy.Category(f.category); taxonomy.Valid(c) {
			cat = c
		}
	case kindBurst:
		text = fmt.Sprintf("failed-password burst: %d auth failures on %s within %v",
			f.count, f.host, d.cfg.Window)
	case kindSpray:
		text = fmt.Sprintf("username spray: auth failures for %d distinct users on %s within %v",
			f.users, f.host, d.cfg.Window)
	case kindScan:
		text = fmt.Sprintf("scan pattern: pre-auth connections from %d distinct ports on %s within %v (%d ascending)",
			f.count, f.host, d.cfg.Window, f.ascending)
	}
	rec := collector.Record{
		Tag:  "detect." + kindNames[f.kind],
		Time: now,
		Msg: &syslog.Message{
			Facility:  facility,
			Severity:  severity,
			Timestamp: now,
			Hostname:  f.host,
			AppName:   "detect",
			Content:   text,
		},
		Meta: map[string]string{
			"detector":   kindNames[f.kind],
			"confidence": strconv.FormatFloat(f.conf, 'f', 2, 64),
			"category":   string(cat),
		},
	}
	if emit != nil {
		emit(rec)
	}
	if d.cfg.Alerts != nil {
		d.cfg.Alerts.ConsiderAlert(monitor.Alert{
			Category:   cat,
			Node:       f.host,
			Text:       text,
			Time:       now,
			Detector:   kindNames[f.kind],
			Confidence: f.conf,
		})
	}
}

// FNV-1a, the alloc-free hash behind every source-table key.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// hashKey hashes host (and, for rate sources, category) into the uint64
// table key; the zero-byte separator keeps ("ab","c") and ("a","bc")
// distinct.
func hashKey(host, category string) uint64 {
	h := hashString(fnvOffset64, host)
	h ^= 0
	h *= fnvPrime64
	return hashString(h, category)
}

var _ collector.SweepingStage = (*Detector)(nil)
