package app

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hetsyslog/internal/collector"
	"hetsyslog/internal/core"
	"hetsyslog/internal/loggen"
	"hetsyslog/internal/monitor"
	"hetsyslog/internal/store"
	"hetsyslog/internal/syslog"
)

// storeNodes starts n store nodes over loopback HTTP and returns their
// base URLs and stores.
func storeNodes(t *testing.T, n int) ([]string, []*store.Store) {
	t.Helper()
	var urls []string
	var stores []*store.Store
	for i := 0; i < n; i++ {
		st := store.New(2)
		srv := httptest.NewServer(st.Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
		stores = append(stores, st)
	}
	return urls, stores
}

// start runs a on loopback and returns the function that cancels it and
// waits for Run to return.
func start(t *testing.T, a *App) (stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()
	select {
	case <-a.Source.Ready():
	case err := <-done:
		cancel()
		t.Fatalf("app stopped before listening: %v", err)
	}
	var once sync.Once
	var err error
	stop = func() error {
		once.Do(func() {
			cancel()
			err = <-done
		})
		return err
	}
	t.Cleanup(func() { _ = stop() })
	return stop
}

// loopback fills in the fields every test deployment shares.
func loopback(cfg Config) Config {
	cfg.Name, cfg.Log = "test", io.Discard
	cfg.TCPAddr, cfg.HTTPAddr = "127.0.0.1:0", "127.0.0.1:0"
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Notifier == nil {
		cfg.Notifier = monitor.NotifierFunc(func(monitor.Alert) {})
	}
	return cfg
}

func message(host, content string) *syslog.Message {
	return &syslog.Message{
		Facility: syslog.Daemon, Severity: syslog.Warning,
		Timestamp: time.Now().UTC().Truncate(time.Second),
		Hostname:  host, AppName: "kernel", Content: content,
	}
}

// send writes n distinct messages over one TCP connection.
func send(t *testing.T, addr string, n int) {
	t.Helper()
	snd, err := syslog.DialSender("tcp", addr, syslog.FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	for i := 0; i < n; i++ {
		if err := snd.Send(message(fmt.Sprintf("cn%03d", i%8+1), fmt.Sprintf("CPU %d temperature above threshold", i))); err != nil {
			t.Fatal(err)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func received(a *App) int64 { return a.Registry.Counter("syslog_received_total", "").Value() }

// TestShutdownDrainsBeforeSnapshot cancels with every record still
// buffered in the pipeline (nothing flushes before shutdown: the batch
// never fills and the interval never elapses) and requires Run's order —
// drain, then snapshot — to leave all of them in the store and in the
// snapshot file.
func TestShutdownDrainsBeforeSnapshot(t *testing.T) {
	const sent = 500
	snap := filepath.Join(t.TempDir(), "snap.jsonl")
	a, err := New(loopback(Config{
		DataFile: snap,
		Pipeline: collector.Config{BatchSize: 1 << 20, FlushInterval: time.Hour},
	}))
	if err != nil {
		t.Fatal(err)
	}
	stop := start(t, a)
	send(t, a.Source.BoundTCP, sent)
	waitFor(t, "the listener to parse everything", func() bool { return received(a) == sent })
	if f := a.Pipeline.Stats().Flushed; f != 0 {
		t.Fatalf("%d records flushed before shutdown; the test needs them queued", f)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	ps := a.Pipeline.Stats()
	if ps.Ingested != sent || ps.Dropped != 0 || ps.Ingested != ps.Filtered+ps.Flushed+ps.Dropped+ps.Spooled {
		t.Errorf("accounting after shutdown = %+v, want %d ingested, none dropped, invariant", ps, sent)
	}
	if got := a.Store.Count(); got != sent {
		t.Errorf("store holds %d documents, want %d", got, sent)
	}
	reloaded, err := New(loopback(Config{DataFile: snap}))
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.Store.Count(); got != sent {
		t.Errorf("snapshot reloads to %d documents, want %d", got, sent)
	}
}

// TestDeployments builds each of the four deployments, runs a few
// records through it, and checks every endpoint is served exactly where
// the hand-built binaries served it.
func TestDeployments(t *testing.T) {
	examples, err := loggen.NewGenerator(11).Dataset(loggen.ScaledPaperCounts(1500))
	if err != nil {
		t.Fatal(err)
	}
	model, _ := core.NewModel("Complement Naive Bayes")
	clf, err := core.Train(model, core.FromExamples(examples), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inv := loggen.NewCluster(16, 4, 1)
	const sent = 40
	for _, tc := range []struct {
		name              string
		classify, cluster bool
	}{
		{"store", false, false},
		{"store front", false, true},
		{"classify embedded", true, false},
		{"classify cluster", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := loopback(Config{Pipeline: collector.Config{FlushInterval: 5 * time.Millisecond}})
			var nodes []*store.Store
			if tc.classify {
				cfg.Classifier, cfg.Inventory, cfg.Cache = clf, inv, true
			}
			if tc.cluster {
				cfg.Cluster.Nodes, nodes = storeNodes(t, 3)
			}
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if (a.Service != nil) != tc.classify || (a.Router != nil) != tc.cluster ||
				(a.Coordinator != nil) != tc.cluster || (a.Store != nil) == tc.cluster {
				t.Fatalf("parts: service=%v router=%v coordinator=%v store=%v",
					a.Service != nil, a.Router != nil, a.Coordinator != nil, a.Store != nil)
			}
			stop := start(t, a)
			send(t, a.Source.BoundTCP, sent)
			waitFor(t, "the listener to parse everything", func() bool { return received(a) == sent })
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			if ps := a.Pipeline.Stats(); ps.Flushed != sent || ps.Dropped != 0 {
				t.Fatalf("pipeline stats = %+v, want %d flushed", ps, sent)
			}
			copies := 0
			for _, st := range nodes {
				copies += st.Count()
			}
			if tc.cluster && copies != 2*sent {
				t.Errorf("store nodes hold %d copies, want %d at replication 2", copies, 2*sent)
			}

			get := func(path string) (int, string) {
				rec := httptest.NewRecorder()
				a.Handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				return rec.Code, rec.Body.String()
			}
			want := map[string]bool{
				"/metrics":             true,
				"/search?q=app:kernel": true,
				"/stats":               true,
				"/alerts":              tc.classify,
				"/detect/state":        false,
				"/cluster/nodes":       tc.cluster,
				"/views/categories":    tc.classify && !tc.cluster,
				"/views/summary":       tc.classify && !tc.cluster,
			}
			for path, served := range want {
				if code, body := get(path); (code == http.StatusOK) != served {
					t.Errorf("GET %s = %d, want served=%v (%.80s)", path, code, served, body)
				}
			}
			var found struct{ Total int }
			_, body := get("/search?q=app:kernel&size=1000")
			if err := json.Unmarshal([]byte(body), &found); err != nil || found.Total != sent {
				t.Errorf("search finds %d of %d records (%v)", found.Total, sent, err)
			}
			if _, metrics := get("/metrics"); !strings.Contains(metrics, "heap_alloc_bytes") ||
				!strings.Contains(metrics, "pipeline_flushed_total") {
				t.Error("/metrics lacks the runtime memstats or the pipeline counters")
			}
			if tc.classify && !tc.cluster {
				var cats []store.TermBucket
				_, body := get("/views/categories")
				if err := json.Unmarshal([]byte(body), &cats); err != nil || len(cats) == 0 {
					t.Errorf("/views/categories = %.80s (%v)", body, err)
				}
				if hits := a.Store.CountQuery(store.Term{Field: "rack", Value: "r0"}); hits == 0 {
					t.Error("no record carries the inventory's rack")
				}
			}
		})
	}
}

// TestClusterFrontHonoursSharedFlags parses a cluster-front command line
// through Flags and checks the three things the hand-built front
// ignored: -detect, -cpuprofile and the runtime memstats gauges.
func TestClusterFrontHonoursSharedFlags(t *testing.T) {
	urls, _ := storeNodes(t, 2)
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	var cfg Config
	fs := flag.NewFlagSet("tivan", flag.ContinueOnError)
	Flags(fs, &cfg)
	if err := fs.Parse([]string{
		"-cluster-nodes", urls[0] + ", " + urls[1], "-detect", "-detect-window", "30s",
		"-cpuprofile", prof, "-udp", "", "-flush-workers", "2",
	}); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Cluster.Nodes) != 2 || cfg.Cluster.Nodes[1] != urls[1] || cfg.UDPAddr != "" ||
		cfg.Pipeline.FlushWorkers != 2 || cfg.Detector.Window != 30*time.Second {
		t.Fatalf("flags parsed into %+v", cfg)
	}
	a, err := New(loopback(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if a.Router == nil || a.Detector == nil || a.Alerts == nil {
		t.Fatalf("front lacks router=%v detector=%v alerts=%v", a.Router != nil, a.Detector != nil, a.Alerts != nil)
	}
	stop := start(t, a)
	for _, path := range []string{"/detect/state", "/alerts", "/cluster/nodes"} {
		resp, err := http.Get("http://" + a.BoundHTTP + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + a.BoundHTTP + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"heap_alloc_bytes", "detect_"} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile not written: %v", err)
	}
}

// TestNewRefusesIgnoredSettings: New refuses a setting the assembled
// deployment would accept and never use, and names its flag — a cluster
// setting without -cluster-nodes, or a store setting on a cluster front,
// which has no store. The same settings where they apply are accepted.
func TestNewRefusesIgnoredSettings(t *testing.T) {
	urls, _ := storeNodes(t, 2)
	dir := t.TempDir()
	for _, tc := range []struct {
		args  []string
		front bool   // with -cluster-nodes
		want  string // in New's error; empty means accepted
	}{
		{[]string{"-spool-dir", dir}, false, "-spool-dir"},
		{[]string{"-spool-max-bytes", "1024"}, false, "-spool-max-bytes"},
		{[]string{"-replication", "1"}, false, "-replication"},
		{[]string{"-partitions", "8"}, false, "-partitions"},
		{[]string{"-time-slice", "10m"}, false, "-time-slice"},
		{[]string{"-query-cache-size", "-1"}, false, "-query-cache-size"},
		{[]string{"-data", filepath.Join(dir, "snap.json")}, true, "-data"},
		{[]string{"-retention", "24h"}, true, "-retention"},
		{[]string{"-spool-max-bytes", "1024"}, true, "SpoolMaxBytes 1024 set without SpoolDir"},

		{[]string{"-spool-dir", filepath.Join(dir, "spool"), "-spool-max-bytes", "1024", "-replication", "1"}, true, ""},
		{[]string{"-data", filepath.Join(dir, "snap.json"), "-retention", "24h"}, false, ""},
	} {
		var cfg Config
		fs := flag.NewFlagSet("tivan", flag.ContinueOnError)
		Flags(fs, &cfg)
		// tivan's own two flags, bound as cmd/tivan binds them.
		fs.StringVar(&cfg.DataFile, "data", "", "")
		fs.DurationVar(&cfg.Retention, "retention", 0, "")
		args := tc.args
		if tc.front {
			args = append([]string{"-cluster-nodes", strings.Join(urls, ",")}, args...)
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		a, err := New(loopback(cfg))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: refused: %v", args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%v: accepted, want an error naming %s", args, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%v: error %q does not name %s", args, err, tc.want)
		}
		if err == nil && a.Router != nil {
			a.Router.Close()
		}
	}
}

// TestInventoryEnricher compares the map-backed stage with the closure
// the binaries used to paste (linear Cluster.Lookup, rack formatted per
// record) on every node of the inventory and on an unknown host.
func TestInventoryEnricher(t *testing.T) {
	inv := loggen.NewCluster(100, 8, 3)
	old := collector.TopologyEnricher(func(host string) (string, string, bool) {
		n, ok := inv.Lookup(host)
		if !ok {
			return "", "", false
		}
		return fmt.Sprintf("r%d", n.Rack), string(n.Arch), true
	})
	enrich := InventoryEnricher(inv)
	hosts := []string{"not-in-inventory", ""}
	for _, n := range inv.Nodes {
		hosts = append(hosts, n.Name)
	}
	for _, host := range hosts {
		r := collector.Record{Tag: "syslog", Msg: message(host, "x")}
		want, wantKeep := old.Apply(r)
		got, keep := enrich.Process(r, nil)
		if keep != wantKeep || got.Meta["rack"] != want.Meta["rack"] || got.Meta["arch"] != want.Meta["arch"] ||
			len(got.Meta) != len(want.Meta) {
			t.Errorf("host %q: meta %v keep %v, want %v keep %v", host, got.Meta, keep, want.Meta, wantKeep)
		}
	}
	if _, keep := enrich.Process(collector.Record{}, nil); keep {
		t.Error("a record without a message must be dropped, as before")
	}
}

// checkSink records what reaches the sink — copied inside Write, before
// the pipeline releases the batch — in front of the deployment's own.
type checkSink struct {
	inner collector.Sink
	mu    sync.Mutex
	seen  map[string]int
	torn  []string
}

func (s *checkSink) Write(ctx context.Context, batch []collector.Record) error {
	s.mu.Lock()
	for _, r := range batch {
		host, content := r.Msg.Hostname, r.Msg.Content
		if content != stressContent(host) {
			s.torn = append(s.torn, fmt.Sprintf("%s: %q", host, content))
		}
		s.seen[strings.Clone(host)]++
	}
	s.mu.Unlock()
	return s.inner.Write(ctx, batch)
}

func stressContent(host string) string {
	return "event from " + host + " padded so the slab differs per record " + host + host
}

// TestRecycleOwnershipStress pins the Lease/Recycle hand-off the wiring
// ships (Release = syslog.Recycle): several TCP senders, small listener
// and flush batches and two flush workers, so flushers recycle leased
// messages while the listener goroutines are still inside deliver. Every
// record sent must reach the sink exactly once and intact.
func TestRecycleOwnershipStress(t *testing.T) {
	const senders, perSender = 4, 3000
	a, err := New(loopback(Config{
		IngestBatch: 4,
		Pipeline:    collector.Config{BatchSize: 8, FlushInterval: time.Millisecond, FlushWorkers: 2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	sink := &checkSink{inner: a.Pipeline.Sink, seen: make(map[string]int)}
	a.Pipeline.Sink = sink
	stop := start(t, a)

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			snd, err := syslog.DialSender("tcp", a.Source.BoundTCP, syslog.FormatRFC5424)
			if err != nil {
				t.Error(err)
				return
			}
			defer snd.Close()
			for n := 0; n < perSender; n++ {
				host := fmt.Sprintf("s%d-n%d", s, n)
				if err := snd.Send(message(host, stressContent(host))); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	const sent = senders * perSender
	// Not just parsed: a record the listener still holds when the context is
	// cancelled may be refused at a full queue, which is shutdown's contract
	// and not what this test is about.
	waitFor(t, "the pipeline to settle everything", func() bool {
		ps := a.Pipeline.Stats()
		return ps.Flushed+ps.Filtered+ps.Dropped >= sent
	})
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	ps := a.Pipeline.Stats()
	if ps.Flushed+ps.Filtered != sent || ps.Dropped != 0 {
		t.Errorf("sent %d, flushed %d + filtered %d (stats %+v)", sent, ps.Flushed, ps.Filtered, ps)
	}
	if len(sink.torn) > 0 {
		t.Errorf("%d torn records at the sink, e.g. %s", len(sink.torn), sink.torn[0])
	}
	dups := 0
	for _, n := range sink.seen {
		if n > 1 {
			dups++
		}
	}
	if dups > 0 || len(sink.seen) != sent {
		t.Errorf("sink saw %d distinct records of %d sent, %d of them more than once", len(sink.seen), sent, dups)
	}
	if got := a.Store.Count(); got != sent {
		t.Errorf("store holds %d documents, want %d", got, sent)
	}
}

// TestDetectorClassifiesEachRecordOnce runs distinct records through the
// classifying wiring with the detectors on. The detector classifies each
// record for its rate baselines and stamps the answer on it, so the cache
// sees exactly one classification per record, and every stored record
// carries the category the uncached model gives its text.
func TestDetectorClassifiesEachRecordOnce(t *testing.T) {
	g := loggen.NewGenerator(13)
	examples, err := g.Dataset(loggen.ScaledPaperCounts(1500))
	if err != nil {
		t.Fatal(err)
	}
	model, _ := core.NewModel("Complement Naive Bayes")
	clf, err := core.Train(model, core.FromExamples(examples), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const sent = 300
	var texts []string
	for distinct := map[string]bool{}; len(texts) < sent; {
		if text := g.Example().Text; !distinct[text] {
			distinct[text] = true
			texts = append(texts, text)
		}
	}
	inv := loggen.NewCluster(16, 4, 1)
	a, err := New(loopback(Config{
		Classifier: clf, Cache: true, Detect: true, Inventory: inv,
		Pipeline: collector.Config{FlushInterval: 5 * time.Millisecond},
	}))
	if err != nil {
		t.Fatal(err)
	}
	stop := start(t, a)
	snd, err := syslog.DialSender("tcp", a.Source.BoundTCP, syslog.FormatRFC5424)
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range texts {
		if err := snd.Send(message(inv.Nodes[i%len(inv.Nodes)].Name, text)); err != nil {
			t.Fatal(err)
		}
	}
	snd.Close()
	waitFor(t, "the listener to parse everything", func() bool { return received(a) == sent })
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	if raw, masked, misses := a.Service.CacheStats(); raw+masked+misses != sent {
		t.Errorf("cache outcomes %d raw + %d masked + %d misses for %d records, want one each", raw, masked, misses, sent)
	}
	stored := 0
	for _, h := range a.Store.Search(store.SearchRequest{Query: store.MatchAll{}, Size: -1}) {
		if _, alert := h.Doc.Fields.Get("detector"); alert {
			continue
		}
		stored++
		if got, want := h.Doc.Fields.Get("category"); got != clf.Classify(h.Doc.Body) || !want {
			t.Errorf("%q stored as %q, the uncached model says %q", h.Doc.Body, got, clf.Classify(h.Doc.Body))
		}
	}
	if stored != sent {
		t.Errorf("store holds %d records, want %d", stored, sent)
	}
}
