package core

import (
	"context"
	"testing"
	"time"

	"hetsyslog/internal/collector"
	"hetsyslog/internal/loggen"
	"hetsyslog/internal/ml/markov"
	"hetsyslog/internal/monitor"
	"hetsyslog/internal/store"
	"hetsyslog/internal/taxonomy"
)

// smallCorpus builds a scaled-down Table 2 corpus for tests.
func smallCorpus(t testing.TB, total int) *Corpus {
	t.Helper()
	g := loggen.NewGenerator(1)
	examples, err := g.Dataset(loggen.ScaledPaperCounts(total))
	if err != nil {
		t.Fatal(err)
	}
	return FromExamples(examples)
}

func TestCorpusSplitStratified(t *testing.T) {
	c := smallCorpus(t, 2000)
	train, test := c.Split(0.2, 1)
	if train.Len()+test.Len() != c.Len() {
		t.Fatalf("split lost samples: %d + %d != %d", train.Len(), test.Len(), c.Len())
	}
	// Every category must appear in train.
	seen := map[string]bool{}
	for _, l := range train.Labels {
		seen[l] = true
	}
	if len(seen) != 8 {
		t.Errorf("train covers %d categories, want 8", len(seen))
	}
}

func TestTrainAndClassify(t *testing.T) {
	c := smallCorpus(t, 2000)
	train, test := c.Split(0.2, 1)
	model, err := NewModel("Complement Naive Bayes")
	if err != nil {
		t.Fatal(err)
	}
	tc, err := Train(model, train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tc.TrainTime <= 0 {
		t.Error("TrainTime not recorded")
	}
	res, err := tc.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightedF1 < 0.95 {
		t.Errorf("weighted F1 = %.4f, want > 0.95 (paper: all models > 0.95)", res.WeightedF1)
	}
	if res.TestTime <= 0 {
		t.Error("TestTime not recorded")
	}
	// Spot-check an easy message.
	if got := tc.Classify("CPU 5 Temperature Above Non-Recoverable - Asserted. Current temperature: 97C"); got != string(taxonomy.ThermalIssue) {
		t.Errorf("thermal message classified as %q", got)
	}
}

func TestTrainEmptyCorpusErrors(t *testing.T) {
	model, _ := NewModel("kNN")
	if _, err := Train(model, &Corpus{}, DefaultOptions()); err == nil {
		t.Error("empty corpus should error")
	}
}

func TestEvaluateUnseenLabelErrors(t *testing.T) {
	c := smallCorpus(t, 1500)
	model, _ := NewModel("Nearest Centroid")
	tc, err := Train(model, c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := &Corpus{Texts: []string{"x"}, Labels: []string{"Novel Category"}}
	if _, err := tc.Evaluate(bad); err == nil {
		t.Error("unseen label should error")
	}
}

func TestNewModelRegistry(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := NewModel(name)
		if err != nil {
			t.Errorf("NewModel(%q): %v", name, err)
			continue
		}
		if m.Name() != name {
			t.Errorf("NewModel(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := NewModel("Perceptron"); err == nil {
		t.Error("unknown model should error")
	}
	if len(ModelNames()) != 8 {
		t.Errorf("registry has %d models, want 8 (Figure 3)", len(ModelNames()))
	}
}

func TestLemmaAblationOption(t *testing.T) {
	c := smallCorpus(t, 1500)
	train, test := c.Split(0.2, 3)
	model, _ := NewModel("Complement Naive Bayes")
	with, err := Train(model, train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	model2, _ := NewModel("Complement Naive Bayes")
	opts := DefaultOptions()
	opts.SkipLemmas = true
	without, err := Train(model2, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := with.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := without.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	// Both must work; lemmatization shrinks the vocabulary.
	if with.Vectorizer.Dims() >= without.Vectorizer.Dims() {
		t.Errorf("lemmatized vocab %d should be smaller than raw %d",
			with.Vectorizer.Dims(), without.Vectorizer.Dims())
	}
	if r1.WeightedF1 < 0.9 || r2.WeightedF1 < 0.9 {
		t.Errorf("ablation F1s: with=%.3f without=%.3f", r1.WeightedF1, r2.WeightedF1)
	}
}

func TestServiceEndToEnd(t *testing.T) {
	// Train on generated data.
	c := smallCorpus(t, 2000)
	model, _ := NewModel("Complement Naive Bayes")
	tc, err := Train(model, c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	st := store.New(2)
	var alerts []monitor.Alert
	am := &monitor.AlertManager{Notifier: monitor.NotifierFunc(func(a monitor.Alert) {
		alerts = append(alerts, a)
	})}
	svc := &Service{Classifier: tc, Store: st, Alerts: am}

	// Feed a stream through a collector pipeline ending in the service.
	g := loggen.NewGenerator(99)
	ch := make(chan collector.Record)
	p := &collector.Pipeline{
		Source: &collector.ChannelSource{Ch: ch},
		Sink:   svc,
		Config: &collector.Config{BatchSize: 16},
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	var sentThermal bool
	for i := 0; i < 200; i++ {
		ex := g.Example()
		if ex.Category == taxonomy.ThermalIssue {
			sentThermal = true
		}
		ch <- collector.Record{Tag: "syslog", Time: ex.Time, Msg: ex.Message()}
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	classified, actionable := svc.Counts()
	if classified != 200 {
		t.Fatalf("classified = %d", classified)
	}
	if st.Count() != 200 {
		t.Fatalf("stored = %d", st.Count())
	}
	if sentThermal && actionable == 0 {
		t.Error("no actionable classifications despite thermal traffic")
	}
	// Stored docs carry the category field, queryable per §4.5 views.
	cats := st.Terms(store.MatchAll{}, "category", 0)
	if len(cats) < 2 {
		t.Errorf("category terms = %+v", cats)
	}
	if sentThermal && len(alerts) == 0 {
		t.Error("no alerts emitted")
	}
	// Nil-message records are ignored.
	if err := svc.Write(context.Background(), []collector.Record{{}}); err != nil {
		t.Fatal(err)
	}
}

func TestServiceClassificationLatency(t *testing.T) {
	// The headline claim: traditional models classify fast enough for the
	// message stream (>> Falcon's 1648-5633 msgs/hour).
	c := smallCorpus(t, 2000)
	model, _ := NewModel("Complement Naive Bayes")
	tc, err := Train(model, c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const n = 2000
	g := loggen.NewGenerator(5)
	msgs := make([]string, n)
	for i := range msgs {
		msgs[i] = g.Example().Text
	}
	gen := time.Since(start)
	start = time.Now()
	for _, m := range msgs {
		tc.Classify(m)
	}
	elapsed := time.Since(start)
	perMsg := elapsed / n
	if perMsg > time.Millisecond {
		t.Errorf("per-message classify = %v (gen %v); must beat 1ms to sustain >1M msgs/hour", perMsg, gen)
	}
}

// TestServiceSequenceAnomaly wires the Markov sequence detector into the
// service: a node stuck in a memory-error loop must trigger the anomaly
// callback even though each message is individually well-classified.
func TestServiceSequenceAnomaly(t *testing.T) {
	c := smallCorpus(t, 2000)
	model, _ := NewModel("Complement Naive Bayes")
	tc, err := Train(model, c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Train the chain on healthy per-node sequences sampled from the
	// generator's background mix (mostly Unimportant with scattered
	// issues).
	g := loggen.NewGenerator(71)
	labelIdx := map[string]int{}
	for i, l := range tc.Labels {
		labelIdx[l] = i
	}
	perNode := map[string][]int{}
	for i := 0; i < 4000; i++ {
		ex := g.Example()
		perNode[ex.Node.Name] = append(perNode[ex.Node.Name], labelIdx[string(ex.Category)])
	}
	var seqs [][]int
	for _, s := range perNode {
		if len(s) >= 8 {
			seqs = append(seqs, s)
		}
	}
	chain := markov.NewChain(len(tc.Labels))
	if err := chain.Fit(seqs); err != nil {
		t.Fatal(err)
	}
	det := markov.NewSequenceDetector(chain, 8)
	if err := det.Calibrate(seqs, 1.1); err != nil {
		t.Fatal(err)
	}

	var anomalousNodes []string
	svc := &Service{
		Classifier: tc,
		Sequences:  det,
		OnSequenceAnomaly: func(node string, surprise float64) {
			anomalousNodes = append(anomalousNodes, node)
		},
	}

	// Healthy traffic: no (or almost no) anomalies.
	var recs []collector.Record
	for i := 0; i < 400; i++ {
		ex := g.Example()
		recs = append(recs, collector.Record{Time: ex.Time, Msg: ex.Message()})
	}
	if err := svc.Write(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	healthyAnoms := svc.SequenceAnomalies()

	// A wedged node: an unbroken run of memory errors.
	bad := g.Cluster.Nodes[5]
	var badRecs []collector.Record
	for _, ex := range g.Burst(taxonomy.MemoryIssue, bad, 30, 0) {
		badRecs = append(badRecs, collector.Record{Time: ex.Time, Msg: ex.Message()})
	}
	if err := svc.Write(context.Background(), badRecs); err != nil {
		t.Fatal(err)
	}
	if svc.SequenceAnomalies() <= healthyAnoms {
		t.Fatal("memory-error loop never flagged as a sequence anomaly")
	}
	found := false
	for _, n := range anomalousNodes {
		if n == bad.Name {
			found = true
		}
	}
	if !found {
		t.Errorf("anomalous nodes %v missing %s", anomalousNodes, bad.Name)
	}
}
