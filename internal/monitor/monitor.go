// Package monitor implements the §4.5 monitoring views on top of the Tivan
// store: frequency/temporal surge detection (§4.5.1), positional (rack)
// analysis (§4.5.2), per-architecture anomaly verification (§4.5.3), and
// the category-triggered notification rules described in §3.
package monitor

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"hetsyslog/internal/store"
	"hetsyslog/internal/taxonomy"
)

// Surge is one detected burst of messages.
type Surge struct {
	Start time.Time `json:"start"`
	Count int       `json:"count"`
	// Baseline is the mean bucket count outside the surge.
	Baseline float64 `json:"baseline"`
	// Factor is Count/Baseline.
	Factor float64 `json:"factor"`
}

// DetectSurges flags histogram buckets whose count exceeds factor times
// the mean of the other buckets (and at least minCount). This is the
// "sudden influx of a large quantity of new syslog messages" signal of
// §4.5.1.
func DetectSurges(buckets []store.HistogramBucket, factor float64, minCount int) []Surge {
	if len(buckets) == 0 {
		return nil
	}
	if factor <= 1 {
		factor = 3
	}
	total := 0
	for _, b := range buckets {
		total += b.Count
	}
	var surges []Surge
	for _, b := range buckets {
		others := total - b.Count
		n := len(buckets) - 1
		baseline := 0.0
		if n > 0 {
			baseline = float64(others) / float64(n)
		}
		if b.Count < minCount {
			continue
		}
		if baseline == 0 || float64(b.Count) >= factor*baseline {
			f := math.Inf(1)
			if baseline > 0 {
				f = float64(b.Count) / baseline
			}
			surges = append(surges, Surge{Start: b.Start, Count: b.Count, Baseline: baseline, Factor: f})
		}
	}
	return surges
}

// FrequencyReport runs the §4.5.1 view: histogram a query, detect surges,
// and rank the noisiest nodes and services inside each surge window.
type FrequencyReport struct {
	Buckets []store.HistogramBucket `json:"buckets"`
	Surges  []Surge                 `json:"surges"`
	// TopNodes/TopApps rank activity within the surge windows.
	TopNodes []store.TermBucket `json:"top_nodes"`
	TopApps  []store.TermBucket `json:"top_apps"`
}

// Frequency builds a FrequencyReport for q at the given interval.
func Frequency(st *store.Store, q store.Query, interval time.Duration, surgeFactor float64, minCount int) FrequencyReport {
	rep := FrequencyReport{Buckets: st.DateHistogram(q, interval)}
	rep.Surges = DetectSurges(rep.Buckets, surgeFactor, minCount)
	if len(rep.Surges) > 0 {
		first := rep.Surges[0]
		window := store.Bool{Must: []store.Query{
			q,
			store.TimeRange{From: first.Start, To: rep.Surges[len(rep.Surges)-1].Start.Add(interval)},
		}}
		rep.TopNodes = st.Terms(window, "hostname", 5)
		rep.TopApps = st.Terms(window, "app", 5)
	}
	return rep
}

// RackReport aggregates activity for one rack (§4.5.2): nodes in a rack
// share an edge switch and a thermal micro-climate, so rack-correlated
// issues point at infrastructure rather than individual nodes.
type RackReport struct {
	Rack       string         `json:"rack"`
	Total      int            `json:"total"`
	ByCategory map[string]int `json:"by_category"`
	// NodesReporting counts distinct hostnames with matches.
	NodesReporting int `json:"nodes_reporting"`
}

// Positional groups matching documents by the "rack" field, with each
// rack's category breakdown and distinct reporting hostnames, in one pivot
// over the store. Racks are returned busiest-first.
func Positional(st *store.Store, q store.Query) []RackReport {
	racks := st.Pivot(q, "rack", "category", "hostname")
	out := make([]RackReport, 0, len(racks))
	for _, rb := range racks {
		rep := RackReport{Rack: rb.Value, Total: rb.Count, ByCategory: map[string]int{}}
		for _, cb := range rb.Sub[0] {
			rep.ByCategory[cb.Value] = cb.Count
		}
		rep.NodesReporting = len(rb.Sub[1])
		out = append(out, rep)
	}
	return out
}

// ArchVerdict is the §4.5.3 judgement: a reading that every node of an
// architecture reports identically is probably a chassis/firmware quirk,
// not a real per-node fault.
type ArchVerdict struct {
	Arch           string  `json:"arch"`
	NodesReporting int     `json:"nodes_reporting"`
	NodesTotal     int     `json:"nodes_total"`
	Fraction       float64 `json:"fraction"`
	// LikelyFalseIndication is true when (nearly) the whole architecture
	// reports the same condition.
	LikelyFalseIndication bool `json:"likely_false_indication"`
}

// PerArch evaluates how widespread a condition (query q) is within one
// architecture, given the total number of nodes of that architecture.
// threshold is the reporting fraction above which the condition is judged
// architecture-wide (default 0.8 when <= 0).
func PerArch(st *store.Store, q store.Query, arch string, nodesTotal int, threshold float64) ArchVerdict {
	if threshold <= 0 {
		threshold = 0.8
	}
	archQ := store.Bool{Must: []store.Query{q, store.Term{Field: "arch", Value: arch}}}
	reporting := len(st.Terms(archQ, "hostname", 0))
	v := ArchVerdict{Arch: arch, NodesReporting: reporting, NodesTotal: nodesTotal}
	if nodesTotal > 0 {
		v.Fraction = float64(reporting) / float64(nodesTotal)
	}
	v.LikelyFalseIndication = nodesTotal > 1 && v.Fraction >= threshold
	return v
}

// Alert is one notification to the administrators.
type Alert struct {
	Category taxonomy.Category `json:"category"`
	Node     string            `json:"node"`
	Text     string            `json:"text"`
	Time     time.Time         `json:"time"`
	// Detector names the streaming detector that raised the alert
	// ("rate", "burst", "spray", "scan"); empty for per-message
	// classification alerts.
	Detector string `json:"detector,omitempty"`
	// Confidence is the detector's score in (0, 1); zero when the alert
	// did not come from a detector.
	Confidence float64 `json:"confidence,omitempty"`
}

// String renders the alert like the notification emails of §3.
func (a Alert) String() string {
	return fmt.Sprintf("[%s] %s %s: %s", a.Category, a.Time.Format(time.RFC3339), a.Node, a.Text)
}

// Notifier delivers alerts (email, chat, test recorder...).
type Notifier interface {
	Notify(Alert)
}

// NotifierFunc adapts a function to Notifier.
type NotifierFunc func(Alert)

// Notify calls f.
func (f NotifierFunc) Notify(a Alert) { f(a) }

// AlertManager applies the §3 rule — "issue categories could be set to
// trigger a notification email when a new message within that category has
// been identified" — with a per-category cooldown so a surge doesn't send
// ten thousand emails.
type AlertManager struct {
	// Enabled lists the categories that trigger notifications; when nil,
	// every actionable category triggers.
	Enabled map[taxonomy.Category]bool
	// Cooldown is the minimum spacing between alerts of one category
	// (default 0 = alert on everything).
	Cooldown time.Duration
	Notifier Notifier
	// RingSize caps the in-memory ring of recently sent alerts served by
	// the /alerts read API: 0 means DefaultAlertRing, negative disables
	// retention entirely. Set it before the first alert; later changes
	// are ignored.
	RingSize int

	mu       sync.Mutex
	lastSent map[taxonomy.Category]time.Time
	sent     int
	muted    int
	ring     []Alert
	ringNext int
	ringLen  int
}

// DefaultAlertRing is the recent-alert ring capacity when
// AlertManager.RingSize is left zero.
const DefaultAlertRing = 1024

// Consider evaluates one classified message and possibly notifies.
// It reports whether a notification went out.
func (am *AlertManager) Consider(cat taxonomy.Category, node, text string, at time.Time) bool {
	return am.ConsiderAlert(Alert{Category: cat, Node: node, Text: text, Time: at})
}

// ConsiderAlert is Consider for pre-built alerts carrying detector
// attribution and confidence — the streaming detectors' entry point. The
// same category filtering and cooldown apply.
func (am *AlertManager) ConsiderAlert(a Alert) bool {
	if am.Enabled != nil {
		if !am.Enabled[a.Category] {
			return false
		}
	} else if !taxonomy.Actionable(a.Category) {
		return false
	}
	am.mu.Lock()
	if am.lastSent == nil {
		am.lastSent = make(map[taxonomy.Category]time.Time)
	}
	if last, ok := am.lastSent[a.Category]; ok && am.Cooldown > 0 && a.Time.Sub(last) < am.Cooldown {
		am.muted++
		am.mu.Unlock()
		return false
	}
	am.lastSent[a.Category] = a.Time
	am.sent++
	// The alert is retained (ring) and handed to the notifier, but its
	// Node/Text may be views of a pooled syslog message that gets
	// re-parsed after this record is released. Copy them here, at the
	// post-cooldown alert rate, instead of per considered message.
	a.Node = strings.Clone(a.Node)
	a.Text = strings.Clone(a.Text)
	am.recordLocked(a)
	n := am.Notifier
	am.mu.Unlock()
	if n != nil {
		n.Notify(a)
	}
	return true
}

// recordLocked appends a sent alert to the recent ring. Caller holds
// am.mu.
func (am *AlertManager) recordLocked(a Alert) {
	if am.RingSize < 0 {
		return
	}
	if am.ring == nil {
		size := am.RingSize
		if size == 0 {
			size = DefaultAlertRing
		}
		am.ring = make([]Alert, size)
	}
	am.ring[am.ringNext] = a
	am.ringNext = (am.ringNext + 1) % len(am.ring)
	if am.ringLen < len(am.ring) {
		am.ringLen++
	}
}

// Recent returns up to limit of the most recently sent alerts whose time
// is not before since, oldest first. limit <= 0 means every retained
// alert; a zero since means no time filter.
func (am *AlertManager) Recent(limit int, since time.Time) []Alert {
	am.mu.Lock()
	defer am.mu.Unlock()
	out := make([]Alert, 0, am.ringLen)
	if am.ringLen == 0 {
		return out
	}
	start := am.ringNext - am.ringLen
	if start < 0 {
		start += len(am.ring)
	}
	for i := 0; i < am.ringLen; i++ {
		a := am.ring[(start+i)%len(am.ring)]
		if !since.IsZero() && a.Time.Before(since) {
			continue
		}
		out = append(out, a)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Counts returns how many alerts were sent and how many were muted by the
// cooldown.
func (am *AlertManager) Counts() (sent, muted int) {
	am.mu.Lock()
	defer am.mu.Unlock()
	return am.sent, am.muted
}

// CategoryQuery matches documents classified into cat (documents must
// carry a "category" field, which the core pipeline adds).
func CategoryQuery(cat taxonomy.Category) store.Query {
	return store.Term{Field: "category", Value: string(cat)}
}

// BusiestRacks returns rack reports sorted by total, capped at n.
func BusiestRacks(reports []RackReport, n int) []RackReport {
	sorted := append([]RackReport(nil), reports...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Total > sorted[b].Total })
	if n > 0 && len(sorted) > n {
		sorted = sorted[:n]
	}
	return sorted
}
