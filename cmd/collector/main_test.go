package main

import (
	"flag"
	"testing"
	"time"

	"hetsyslog/internal/app"
)

// TestFlagParity pins collector's command line: app.Flags (whose names
// and defaults internal/app pins) plus the nine model and classification
// flags, nothing else.
func TestFlagParity(t *testing.T) {
	own := map[string]string{
		"model": "Complement Naive Bayes", "train-scale": "20000", "seed": "1",
		"cooldown": "1m0s", "blacklist": "", "workers": "0", "classify-cache": "true",
		"classify-cache-size": "32768", "classify-cache-shards": "8",
	}
	var cfg, sharedCfg app.Config
	var tr training
	fs := flag.NewFlagSet("collector", flag.ContinueOnError)
	flags(fs, &cfg, &tr)
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	app.Flags(shared, &sharedCfg)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if s := shared.Lookup(f.Name); s != nil {
			if s.DefValue != f.DefValue || s.Usage != f.Usage {
				t.Errorf("shared flag -%s differs in collector", f.Name)
			}
		} else if def, ok := own[f.Name]; !ok || def != f.DefValue {
			t.Errorf("flag -%s (default %q) is neither shared nor one of collector's nine", f.Name, f.DefValue)
		}
	})
	if n != 32 {
		t.Errorf("collector registers %d flags, want the 23 shared + 9", n)
	}

	if err := fs.Parse([]string{"-model", "Random Forest", "-cooldown", "5s", "-classify-cache=false", "-workers", "3"}); err != nil {
		t.Fatal(err)
	}
	if tr.model != "Random Forest" || cfg.Cooldown != 5*time.Second || cfg.Cache || cfg.Workers != 3 {
		t.Errorf("parsed into %+v / %+v", cfg, tr)
	}
}
