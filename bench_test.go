package hetsyslog_test

// One benchmark per table/figure of the paper's evaluation (DESIGN.md §4).
// Benchmarks print the reproduced artifact once (b.N repetitions measure
// the regeneration cost); run them with:
//
//	go test -bench=. -benchmem
//
// Scale is laptop-sized by default; set HETSYSLOG_SCALE to grow the corpus
// (196393 = the paper's full Table 2).

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"hetsyslog/internal/collector"
	"hetsyslog/internal/core"
	"hetsyslog/internal/experiments"
	"hetsyslog/internal/llm"
	"hetsyslog/internal/loggen"
	"hetsyslog/internal/tfidf"
)

func benchScale() int {
	if s := os.Getenv("HETSYSLOG_SCALE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 8000
}

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

// sharedRunner caches the corpus across benchmarks.
func sharedRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	runnerOnce.Do(func() {
		runner = experiments.NewRunner(experiments.Config{Scale: benchScale(), Seed: 1})
	})
	if _, err := runner.Corpus(); err != nil {
		b.Fatal(err)
	}
	return runner
}

func printOnce(b *testing.B, i int, txt string) {
	if i == 0 && testing.Verbose() {
		b.Log("\n" + txt)
	}
}

// BenchmarkTable1TFIDF regenerates the per-category top-token table.
func BenchmarkTable1TFIDF(b *testing.B) {
	r := sharedRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, txt, err := r.Table1(5)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, txt)
	}
}

// BenchmarkTable2Generate regenerates the Table 2 corpus (workload
// generation cost).
func BenchmarkTable2Generate(b *testing.B) {
	scale := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := loggen.NewGenerator(int64(i + 1))
		examples, err := g.Dataset(loggen.ScaledPaperCounts(scale))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Logf("generated %d unique messages", len(examples))
		}
	}
}

// BenchmarkFigure3Classifiers runs the full eight-model sweep: weighted
// F1, training time and testing time per classifier.
func BenchmarkFigure3Classifiers(b *testing.B) {
	r := sharedRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, txt, err := r.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, txt)
	}
}

// BenchmarkFigure2ConfusionMatrix trains Linear SVC and regenerates its
// confusion matrix.
func BenchmarkFigure2ConfusionMatrix(b *testing.B) {
	r := sharedRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, txt, err := r.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, txt)
	}
}

// BenchmarkAblationNoUnimportant reruns the sweep without the
// "Unimportant" category (§5.1).
func BenchmarkAblationNoUnimportant(b *testing.B) {
	r := sharedRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, txt, err := r.Ablation()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, txt)
	}
}

// BenchmarkTable3LLM regenerates the LLM inference-cost table from the
// simulators' token accounting and the A100 latency model.
func BenchmarkTable3LLM(b *testing.B) {
	r := sharedRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, txt, err := r.Table3(50)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, txt)
	}
}

// BenchmarkFigure1Explanation regenerates the worked example with its
// natural-language explanation.
func BenchmarkFigure1Explanation(b *testing.B) {
	r := sharedRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txt, err := r.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, txt)
	}
}

// BenchmarkFailureModes quantifies the §5.2 alignment failures with and
// without the token cap.
func BenchmarkFailureModes(b *testing.B) {
	r := sharedRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, txt, err := r.Failures(100)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, txt)
	}
}

// BenchmarkRealtimeClassification measures the deployed system's
// per-message classification latency — the number that must beat the
// cluster's >1M msgs/hour ingest rate (§5: "techniques ... are useless to
// us if ... we can only afford to classify a single message every 30
// seconds").
func BenchmarkRealtimeClassification(b *testing.B) {
	r := sharedRunner(b)
	corpus, err := r.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	model, _ := core.NewModel("Complement Naive Bayes")
	tc, err := core.Train(model, corpus, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	msg := "CPU 12 Temperature Above Non-Recoverable - Asserted. Current temperature: 96C"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Classify(msg)
	}
}

// serviceStream pre-generates a record stream and a trained service so
// the throughput benchmarks measure classification, not setup.
func serviceStream(b *testing.B, n int) (*core.TextClassifier, []collector.Record) {
	b.Helper()
	r := sharedRunner(b)
	corpus, err := r.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	model, _ := core.NewModel("Complement Naive Bayes")
	tc, err := core.Train(model, corpus, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	g := loggen.NewGenerator(17)
	recs := make([]collector.Record, n)
	for i := range recs {
		ex := g.Example()
		recs[i] = collector.Record{Tag: "syslog", Time: ex.Time, Msg: ex.Message()}
	}
	return tc, recs
}

// BenchmarkServiceCacheHit measures a raw-level cache hit — the
// steady-state cost of classifying a repeated message. Run with -benchmem:
// the contract is 0 allocs/op (enforced by TestCachedClassifyZeroAllocs).
func BenchmarkServiceCacheHit(b *testing.B) {
	tc, _ := serviceStream(b, 1)
	cache := core.NewClassifyCache(0, 0)
	var sc core.ClassifyScratch
	msg := "CPU 12 Temperature Above Non-Recoverable - Asserted. Current temperature: 96C"
	if _, outcome := tc.PredictCached(msg, cache, &sc); outcome != core.CacheMiss {
		b.Fatal("first call should miss")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, outcome := tc.PredictCached(msg, cache, &sc); outcome != core.CacheHitRaw {
			b.Fatal("warm call should hit the raw level")
		}
	}
}

// BenchmarkVectorizeAllocs contrasts the allocating Transform against the
// scratch-reusing TransformInto on the cache-miss path. Run with
// -benchmem; the Into variant should be allocation-free in steady state.
func BenchmarkVectorizeAllocs(b *testing.B) {
	tc, _ := serviceStream(b, 1)
	msg := "error: Node cn101 has low real_memory size (190000 < 256000)"
	tokens := tc.Prep.Process(msg)
	b.Run("Transform", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc.Vectorizer.Transform(tokens)
		}
	})
	b.Run("TransformInto", func(b *testing.B) {
		var sc tfidf.TransformScratch
		tc.Vectorizer.TransformInto(tokens, &sc) // warm the scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tc.Vectorizer.TransformInto(tokens, &sc)
		}
	})
}

// BenchmarkSimulatedLLMThroughput is the Table 3 counterpoint to
// BenchmarkRealtimeClassification: simulated wall-clock per generative
// classification (the simulator itself is fast; the *reported* latency is
// in Table 3).
func BenchmarkSimulatedLLMThroughput(b *testing.B) {
	g := llm.NewGenerative(llm.Falcon40B(), llm.A100Node(), llm.Falcon40BFailures(), 1)
	g.MaxNewTokens = 64
	p := llm.DefaultPrompt()
	msg := "CPU 12 Temperature Above Non-Recoverable - Asserted. Current temperature: 96C"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Classify(msg, p)
	}
}

// BenchmarkDriftRobustness runs the drift experiment: classifier F1 vs
// bucketing coverage before/after a fleet-wide firmware update (§3
// motivation, §7 future work).
func BenchmarkDriftRobustness(b *testing.B) {
	r := sharedRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, txt, err := r.Drift("Complement Naive Bayes")
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, txt)
	}
}

// BenchmarkBaselines compares the pre-paper approaches (Levenshtein
// bucketing, Cavnar-Trenkle n-grams) against the TF-IDF pipeline.
func BenchmarkBaselines(b *testing.B) {
	r := sharedRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, txt, err := r.Baselines()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, txt)
	}
}

// BenchmarkLemmaAblation quantifies the §4.3.2 lemmatization step
// (DESIGN.md ablation: lemmatization on/off for TF-IDF feature quality).
func BenchmarkLemmaAblation(b *testing.B) {
	r := sharedRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, txt, err := r.LemmaAblation()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, txt)
	}
}
