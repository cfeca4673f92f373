package main

import (
	"flag"
	"testing"

	"hetsyslog/internal/app"
)

// TestFlagParity pins tivan's command line: app.Flags (whose names and
// defaults internal/app pins) plus -data and -retention, nothing else.
func TestFlagParity(t *testing.T) {
	own := map[string]string{"data": "", "retention": "0s"}
	var cfg, sharedCfg app.Config
	fs := flag.NewFlagSet("tivan", flag.ContinueOnError)
	flags(fs, &cfg)
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	app.Flags(shared, &sharedCfg)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if s := shared.Lookup(f.Name); s != nil {
			if s.DefValue != f.DefValue || s.Usage != f.Usage {
				t.Errorf("shared flag -%s differs in tivan", f.Name)
			}
		} else if def, ok := own[f.Name]; !ok || def != f.DefValue {
			t.Errorf("flag -%s (default %q) is neither shared nor one of tivan's two", f.Name, f.DefValue)
		}
	})
	if n != 25 {
		t.Errorf("tivan registers %d flags, want the 23 shared + 2", n)
	}

	if err := fs.Parse([]string{"-data", "snap.jsonl", "-retention", "720h", "-shards", "3"}); err != nil {
		t.Fatal(err)
	}
	if cfg.DataFile != "snap.jsonl" || cfg.Retention.Hours() != 720 || cfg.Shards != 3 {
		t.Errorf("parsed into %+v", cfg)
	}
}
