// Package integration exercises the whole reproduction end to end over
// real sockets and HTTP, through the one wiring both binaries run
// (internal/app): workload generator -> syslog relay -> collector pipeline
// (dedup + inventory enrichment) -> classification service -> Tivan store
// -> store API, dashboard views and LLM status summary -> shutdown
// snapshot.
package integration

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetsyslog/internal/app"
	"hetsyslog/internal/collector"
	"hetsyslog/internal/core"
	"hetsyslog/internal/loggen"
	"hetsyslog/internal/monitor"
	"hetsyslog/internal/store"
	"hetsyslog/internal/syslog"
	"hetsyslog/internal/taxonomy"
)

func TestFullSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}

	// --- Train. ---
	gen := loggen.NewGenerator(101)
	examples, err := gen.Dataset(loggen.ScaledPaperCounts(3000))
	if err != nil {
		t.Fatal(err)
	}
	model, _ := core.NewModel("Complement Naive Bayes")
	clf, err := core.Train(model, core.FromExamples(examples), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// --- The deployment: classifier + embedded store. ---
	alertCh := make(chan monitor.Alert, 1024)
	snap := filepath.Join(t.TempDir(), "snap.jsonl")
	a, err := app.New(app.Config{
		Name: "integration", Log: io.Discard,
		TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
		Shards: 4, DataFile: snap,
		Classifier: clf, Inventory: gen.Cluster, Seed: 1,
		Notifier: monitor.NotifierFunc(func(al monitor.Alert) {
			select {
			case alertCh <- al:
			default:
			}
		}),
		Pipeline: collector.Config{BatchSize: 32, FlushInterval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- a.Run(ctx) }()
	select {
	case <-a.Source.Ready():
	case err := <-runDone:
		t.Fatalf("app stopped before listening: %v", err)
	}

	// --- Relay in front, as in §4.2. ---
	down, err := syslog.DialSender("tcp", a.Source.BoundTCP, syslog.FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	relay := syslog.NewRelay(down)
	relayAddr, err := relay.Server().ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	// --- Drive traffic. ---
	snd, err := syslog.DialSender("tcp", relayAddr.String(), syslog.FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	const total = 1000
	for i := 0; i < total; i++ {
		if err := snd.Send(gen.Example().Message()); err != nil {
			t.Fatal(err)
		}
	}
	// Everything the listener parsed has been flushed or deduplicated.
	received := a.Registry.Counter("syslog_received_total", "")
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		ps := a.Pipeline.Stats()
		if received.Value() == total && ps.Ingested >= total && ps.Flushed+ps.Filtered == ps.Ingested {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := received.Value(); got != total {
		t.Fatalf("listener received %d, want %d", got, total)
	}
	select {
	case <-alertCh:
	default:
		t.Error("no alerts delivered")
	}

	// --- Store HTTP API, on the address the app serves. ---
	base := "http://" + a.BoundHTTP
	resp, err := http.Post(base+"/search", "application/json",
		strings.NewReader(`{"query":{"term":{"field":"category","value":"Thermal Issue"}},"size":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var searchOut struct {
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&searchOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if searchOut.Total == 0 {
		t.Error("no thermal docs findable over HTTP")
	}

	// --- Dashboard views. ---
	var cats []store.TermBucket
	getJSON(t, base+"/views/categories", &cats)
	if len(cats) < 3 {
		t.Errorf("dashboard categories = %+v", cats)
	}
	var racks []monitor.RackReport
	getJSON(t, base+"/views/positional?category="+url.QueryEscape(string(taxonomy.ThermalIssue)), &racks)
	if len(racks) == 0 {
		t.Error("no rack reports; topology enrichment broken?")
	}

	// --- LLM status summary over the same store. ---
	var summary struct {
		Summary string  `json:"summary"`
		Latency float64 `json:"modelled_latency_sec"`
	}
	getJSON(t, base+"/views/summary", &summary)
	if summary.Summary == "" || summary.Latency <= 0 {
		t.Error("summarizer produced nothing")
	}

	// --- Shutdown: drain, then snapshot. ---
	cancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	ps := a.Pipeline.Stats()
	if ps.Dropped != 0 || ps.Spooled != 0 || ps.Ingested != ps.Filtered+ps.Flushed {
		t.Fatalf("pipeline accounting after shutdown: %+v", ps)
	}
	// Dedup stands in front of classification: every message sent was
	// either classified or suppressed as a repeat, and each suppressed
	// burst came back as one summary record.
	classified, actionable := a.Service.Counts()
	summaries := ps.Ingested - total
	if classified != ps.Flushed || classified != total-ps.Filtered+summaries {
		t.Fatalf("classified = %d with %d filtered and %d summaries of %d sent (stats %+v)",
			classified, ps.Filtered, summaries, total, ps)
	}
	if actionable == 0 {
		t.Fatal("no actionable classifications")
	}
	if int64(a.Store.Count()) != classified {
		t.Fatalf("store count = %d, classified %d", a.Store.Count(), classified)
	}

	// --- The snapshot Run wrote reloads to the same store. ---
	st2 := store.New(4)
	if err := st2.LoadFile(snap); err != nil {
		t.Fatal(err)
	}
	if st2.Count() != a.Store.Count() {
		t.Errorf("snapshot round trip: %d != %d", st2.Count(), a.Store.Count())
	}
}

func getJSON(t *testing.T, u string, out any) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s -> %d", u, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
