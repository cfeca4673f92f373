package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"hetsyslog/internal/store"
	"hetsyslog/internal/taxonomy"
)

var t0 = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

func indexEvent(st *store.Store, offset time.Duration, host, rack, arch, app string, cat taxonomy.Category, body string) {
	st.Index(store.Doc{
		Time: t0.Add(offset),
		Fields: store.F(
			"hostname", host, "rack", rack, "arch", arch, "app", app,
			"category", string(cat),
		),
		Body: body,
	})
}

func TestDetectSurges(t *testing.T) {
	buckets := []store.HistogramBucket{
		{Start: t0, Count: 5},
		{Start: t0.Add(time.Minute), Count: 4},
		{Start: t0.Add(2 * time.Minute), Count: 100}, // the door was left open
		{Start: t0.Add(3 * time.Minute), Count: 6},
	}
	surges := DetectSurges(buckets, 3, 10)
	if len(surges) != 1 {
		t.Fatalf("surges = %d, want 1", len(surges))
	}
	if !surges[0].Start.Equal(t0.Add(2*time.Minute)) || surges[0].Count != 100 {
		t.Errorf("surge = %+v", surges[0])
	}
	if surges[0].Factor < 10 {
		t.Errorf("factor = %v", surges[0].Factor)
	}
}

func TestDetectSurgesQuietStream(t *testing.T) {
	buckets := []store.HistogramBucket{
		{Start: t0, Count: 5}, {Start: t0.Add(time.Minute), Count: 6},
		{Start: t0.Add(2 * time.Minute), Count: 5},
	}
	if got := DetectSurges(buckets, 3, 10); len(got) != 0 {
		t.Errorf("quiet stream produced surges: %+v", got)
	}
	if got := DetectSurges(nil, 3, 10); got != nil {
		t.Error("empty buckets should give nil")
	}
}

func TestFrequencyReport(t *testing.T) {
	st := store.New(2)
	// Background chatter from several nodes.
	for i := 0; i < 10; i++ {
		indexEvent(st, time.Duration(i)*time.Minute, fmt.Sprintf("cn%d", i%3), "r0",
			"x86_64-dell", "kernel", taxonomy.Unimportant, "routine chatter")
	}
	// A thermal burst from cn7 in minute 4.
	for i := 0; i < 50; i++ {
		indexEvent(st, 4*time.Minute+time.Duration(i)*time.Second, "cn7", "r1",
			"x86_64-dell", "ipmiseld", taxonomy.ThermalIssue, "temperature above threshold")
	}
	rep := Frequency(st, store.MatchAll{}, time.Minute, 3, 10)
	if len(rep.Surges) != 1 {
		t.Fatalf("surges = %+v", rep.Surges)
	}
	if len(rep.TopNodes) == 0 || rep.TopNodes[0].Value != "cn7" {
		t.Errorf("top nodes = %+v", rep.TopNodes)
	}
	if len(rep.TopApps) == 0 || rep.TopApps[0].Value != "ipmiseld" {
		t.Errorf("top apps = %+v", rep.TopApps)
	}
}

func TestPositional(t *testing.T) {
	st := store.New(2)
	// Rack r2 is cooking: thermal events on three nodes.
	for i, host := range []string{"cn20", "cn21", "cn22"} {
		for j := 0; j < 5; j++ {
			indexEvent(st, time.Duration(i*5+j)*time.Second, host, "r2",
				"aarch64-cavium", "kernel", taxonomy.ThermalIssue, "thermal zone throttled")
		}
	}
	indexEvent(st, time.Minute, "cn01", "r0", "x86_64-dell", "sshd",
		taxonomy.SSHConnection, "connection closed")
	reports := Positional(st, store.MatchAll{})
	if len(reports) != 2 {
		t.Fatalf("racks = %d", len(reports))
	}
	top := BusiestRacks(reports, 1)[0]
	if top.Rack != "r2" || top.Total != 15 || top.NodesReporting != 3 {
		t.Errorf("top rack = %+v", top)
	}
	if top.ByCategory[string(taxonomy.ThermalIssue)] != 15 {
		t.Errorf("by category = %v", top.ByCategory)
	}
}

// TestPositionalMatchesPerRackTerms pins the one-pivot Positional to the
// query sequence it replaced — Terms by rack, then per rack a category
// Terms and a hostname Terms restricted to that rack — on a randomized
// corpus: same racks in the same busiest-first order (ties by name), same
// totals, category breakdowns and distinct-host counts, for an unfiltered
// and a filtered view. Documents without a rack, category or hostname are
// in the corpus; racks keep one spelling, since the per-rack Term matched
// case-insensitively where grouping is by exact value.
func TestPositionalMatchesPerRackTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := store.New(3)
	cats := []taxonomy.Category{taxonomy.ThermalIssue, taxonomy.SSHConnection, taxonomy.HardwareIssue}
	for i := 0; i < 600; i++ {
		var fs store.Fields
		if rng.Intn(10) > 0 {
			fs = fs.Set("rack", fmt.Sprintf("r%d", rng.Intn(5)))
		}
		if rng.Intn(10) > 0 {
			fs = fs.Set("hostname", fmt.Sprintf("cn%02d", rng.Intn(24)))
		}
		if rng.Intn(10) > 0 {
			fs = fs.Set("category", string(cats[rng.Intn(len(cats))]))
		}
		st.Index(store.Doc{Time: t0.Add(time.Duration(i) * time.Second), Fields: fs,
			Body: []string{"thermal zone throttled", "connection closed"}[rng.Intn(2)]})
	}
	for _, q := range []store.Query{store.MatchAll{}, store.Match{Text: "throttled"}, CategoryQuery(taxonomy.ThermalIssue)} {
		var want []RackReport
		for _, rb := range st.Terms(q, "rack", 0) {
			rackQ := store.Bool{Must: []store.Query{q, store.Term{Field: "rack", Value: rb.Value}}}
			rep := RackReport{Rack: rb.Value, Total: rb.Count, ByCategory: map[string]int{}}
			for _, cb := range st.Terms(rackQ, "category", 0) {
				rep.ByCategory[cb.Value] = cb.Count
			}
			rep.NodesReporting = len(st.Terms(rackQ, "hostname", 0))
			want = append(want, rep)
		}
		if got := Positional(st, q); !reflect.DeepEqual(got, want) {
			t.Errorf("Positional(%#v)\n got %+v\nwant %+v", q, got, want)
		}
	}
}

func TestPerArchFalseIndication(t *testing.T) {
	st := store.New(2)
	// Every cavium node reports the identical bogus fan reading (§4.5.3's
	// IPMI example) — likely firmware, not hardware.
	for i := 0; i < 8; i++ {
		indexEvent(st, time.Duration(i)*time.Second, fmt.Sprintf("cn%d", i), "r1",
			"aarch64-cavium", "ipmiseld", taxonomy.HardwareIssue, "Fan 3 reading absent")
	}
	v := PerArch(st, store.Match{Text: "Fan 3 reading absent"}, "aarch64-cavium", 8, 0.8)
	if !v.LikelyFalseIndication || v.NodesReporting != 8 {
		t.Errorf("verdict = %+v", v)
	}
	// One node only: a real anomaly.
	st2 := store.New(2)
	indexEvent(st2, 0, "cn3", "r1", "aarch64-cavium", "ipmiseld",
		taxonomy.HardwareIssue, "Fan 3 reading absent")
	v2 := PerArch(st2, store.Match{Text: "Fan 3 reading absent"}, "aarch64-cavium", 8, 0.8)
	if v2.LikelyFalseIndication || v2.NodesReporting != 1 {
		t.Errorf("verdict = %+v", v2)
	}
}

func TestPerArchDefaults(t *testing.T) {
	st := store.New(1)
	v := PerArch(st, store.MatchAll{}, "x86_64-dell", 0, 0)
	if v.LikelyFalseIndication {
		t.Error("zero-node architecture cannot be a false indication")
	}
}

type recordingNotifier struct {
	mu     sync.Mutex
	alerts []Alert
}

func (r *recordingNotifier) Notify(a Alert) {
	r.mu.Lock()
	r.alerts = append(r.alerts, a)
	r.mu.Unlock()
}

func TestAlertManagerActionableOnly(t *testing.T) {
	rec := &recordingNotifier{}
	am := &AlertManager{Notifier: rec}
	if am.Consider(taxonomy.Unimportant, "cn1", "noise", t0) {
		t.Error("Unimportant must not alert")
	}
	if !am.Consider(taxonomy.ThermalIssue, "cn1", "hot", t0) {
		t.Error("Thermal should alert")
	}
	if len(rec.alerts) != 1 || rec.alerts[0].Category != taxonomy.ThermalIssue {
		t.Errorf("alerts = %+v", rec.alerts)
	}
}

func TestAlertManagerCooldown(t *testing.T) {
	rec := &recordingNotifier{}
	am := &AlertManager{Notifier: rec, Cooldown: time.Minute}
	am.Consider(taxonomy.MemoryIssue, "cn1", "a", t0)
	am.Consider(taxonomy.MemoryIssue, "cn2", "b", t0.Add(10*time.Second)) // muted
	am.Consider(taxonomy.MemoryIssue, "cn3", "c", t0.Add(2*time.Minute))  // sent
	am.Consider(taxonomy.USBDevice, "cn4", "d", t0.Add(11*time.Second))   // other category unaffected
	sent, muted := am.Counts()
	if sent != 3 || muted != 1 {
		t.Errorf("sent=%d muted=%d", sent, muted)
	}
}

func TestAlertManagerEnabledSet(t *testing.T) {
	rec := &recordingNotifier{}
	am := &AlertManager{
		Notifier: rec,
		Enabled:  map[taxonomy.Category]bool{taxonomy.IntrusionDetection: true},
	}
	if am.Consider(taxonomy.ThermalIssue, "cn1", "hot", t0) {
		t.Error("disabled category alerted")
	}
	if !am.Consider(taxonomy.IntrusionDetection, "cn1", "root login", t0) {
		t.Error("enabled category did not alert")
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{Category: taxonomy.ThermalIssue, Node: "cn7", Text: "hot", Time: t0}
	s := a.String()
	if s == "" || s[0] != '[' {
		t.Errorf("String = %q", s)
	}
}

func TestCategoryQuery(t *testing.T) {
	st := store.New(1)
	indexEvent(st, 0, "cn1", "r0", "a", "kernel", taxonomy.ThermalIssue, "hot")
	indexEvent(st, time.Second, "cn1", "r0", "a", "kernel", taxonomy.Unimportant, "meh")
	if got := st.CountQuery(CategoryQuery(taxonomy.ThermalIssue)); got != 1 {
		t.Errorf("category query hits = %d", got)
	}
}
