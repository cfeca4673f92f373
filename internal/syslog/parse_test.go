package syslog

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var ref = time.Date(2023, time.October, 15, 0, 0, 0, 0, time.UTC)

func TestParseRFC3164Classic(t *testing.T) {
	raw := "<34>Oct 11 22:14:15 mymachine su[231]: 'su root' failed on /dev/pts/8"
	m, err := ParseRFC3164(raw, ref)
	if err != nil {
		t.Fatal(err)
	}
	if m.Facility != Auth || m.Severity != Critical {
		t.Errorf("pri = %v.%v", m.Facility, m.Severity)
	}
	if m.Hostname != "mymachine" {
		t.Errorf("hostname = %q", m.Hostname)
	}
	if m.AppName != "su" || m.ProcID != "231" {
		t.Errorf("tag = %q[%q]", m.AppName, m.ProcID)
	}
	if m.Content != "'su root' failed on /dev/pts/8" {
		t.Errorf("content = %q", m.Content)
	}
	if m.Timestamp.Month() != time.October || m.Timestamp.Day() != 11 ||
		m.Timestamp.Year() != 2023 {
		t.Errorf("timestamp = %v", m.Timestamp)
	}
}

func TestParseRFC3164NoTag(t *testing.T) {
	raw := "<13>Oct 11 22:14:15 cn42 CPU temperature above threshold, cpu clock throttled"
	m, err := ParseRFC3164(raw, ref)
	if err != nil {
		t.Fatal(err)
	}
	if m.AppName != "" {
		t.Errorf("app = %q, want empty", m.AppName)
	}
	if !strings.HasPrefix(m.Content, "CPU temperature") {
		t.Errorf("content = %q", m.Content)
	}
}

func TestParseRFC3164RFC3339Timestamp(t *testing.T) {
	raw := "<13>2023-07-01T10:20:30Z cn42 kernel: usb 1-1: new high-speed USB device number 7"
	m, err := ParseRFC3164(raw, ref)
	if err != nil {
		t.Fatal(err)
	}
	if m.Timestamp != time.Date(2023, 7, 1, 10, 20, 30, 0, time.UTC) {
		t.Errorf("timestamp = %v", m.Timestamp)
	}
	if m.Hostname != "cn42" || m.AppName != "kernel" {
		t.Errorf("host/app = %q/%q", m.Hostname, m.AppName)
	}
}

func TestParseRFC3164NoTimestamp(t *testing.T) {
	raw := "<13>something without any timestamp"
	m, err := ParseRFC3164(raw, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Timestamp.IsZero() {
		t.Errorf("timestamp should be zero, got %v", m.Timestamp)
	}
	if m.Content != "something without any timestamp" {
		t.Errorf("content = %q", m.Content)
	}
}

func TestParsePriErrors(t *testing.T) {
	cases := []struct {
		raw  string
		want error
	}{
		{"", ErrEmpty},
		{"no pri here", ErrNoPriority},
		{"<>x", ErrBadPriority},
		{"<abc>x", ErrBadPriority},
		{"<999>x", ErrBadPriority},
		{"<192>x", ErrBadPriority},
	}
	for _, c := range cases {
		_, err := ParseRFC3164(c.raw, ref)
		if !errors.Is(err, c.want) {
			t.Errorf("ParseRFC3164(%q) err = %v, want %v", c.raw, err, c.want)
		}
	}
}

func TestParseRFC5424Full(t *testing.T) {
	raw := `<165>1 2003-10-11T22:14:15.003Z mymachine.example.com evntslog 111 ID47 [exampleSDID@32473 iut="3" eventSource="Application"] An application event log entry`
	m, err := ParseRFC5424(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Facility != Local4 || m.Severity != Notice {
		t.Errorf("pri = %v.%v", m.Facility, m.Severity)
	}
	if m.Hostname != "mymachine.example.com" || m.AppName != "evntslog" ||
		m.ProcID != "111" || m.MsgID != "ID47" {
		t.Errorf("header = %q %q %q %q", m.Hostname, m.AppName, m.ProcID, m.MsgID)
	}
	if m.SD()["exampleSDID@32473"]["iut"] != "3" {
		t.Errorf("sd = %v", m.SD())
	}
	if m.Content != "An application event log entry" {
		t.Errorf("content = %q", m.Content)
	}
}

func TestParseRFC5424NilFields(t *testing.T) {
	raw := "<34>1 - - - - - -"
	m, err := ParseRFC5424(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Timestamp.IsZero() || m.Hostname != "" || m.AppName != "" {
		t.Errorf("nil fields not empty: %+v", m)
	}
	// "-" MSG remains as content "-": per RFC the MSG is optional; our
	// parser keeps the trailing token.
}

func TestParseRFC5424EscapedSD(t *testing.T) {
	raw := `<34>1 2023-07-01T00:00:00Z h app 1 mid [x@1 k="a\"b\]c\\d"] msg`
	m, err := ParseRFC5424(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SD()["x@1"]["k"]; got != `a"b]c\d` {
		t.Errorf("escaped SD value = %q", got)
	}
}

func TestParseRFC5424Errors(t *testing.T) {
	for _, raw := range []string{
		"<34>2 2023-07-01T00:00:00Z h a p m - x", // bad version
		"<34>1 not-a-time h a p m - x",
		"<34>1 2023-07-01T00:00:00Z h a p",          // truncated
		"<34>1 2023-07-01T00:00:00Z h a p m [x@1 k", // bad SD
	} {
		if _, err := ParseRFC5424(raw); err == nil {
			t.Errorf("ParseRFC5424(%q) expected error", raw)
		}
	}
}

func TestFormatParse5424RoundTrip(t *testing.T) {
	m := &Message{
		Facility: Daemon, Severity: Warning,
		Timestamp: time.Date(2023, 7, 1, 10, 0, 0, 123000000, time.UTC),
		Hostname:  "cn101", AppName: "slurmd", ProcID: "881", MsgID: "T1",
		Structured: StructuredData{"meta@1": {"rack": "r7", "arch": "x86_64"}},
		Content:    "error: Node cn101 has low real_memory size (190000 < 256000)",
	}
	got, err := ParseRFC5424(FormatRFC5424(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Content != m.Content || got.Hostname != m.Hostname ||
		got.SD()["meta@1"]["rack"] != "r7" {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if !got.Timestamp.Equal(m.Timestamp) {
		t.Errorf("timestamp: %v != %v", got.Timestamp, m.Timestamp)
	}
}

func TestFormatParse3164RoundTrip(t *testing.T) {
	m := &Message{
		Facility: Kern, Severity: Warning,
		Timestamp: time.Date(2023, 10, 11, 22, 14, 15, 0, time.UTC),
		Hostname:  "cn7", AppName: "kernel",
		Content: "Package temperature above threshold, cpu clock throttled",
	}
	got, err := ParseRFC3164(FormatRFC3164(m), ref)
	if err != nil {
		t.Fatal(err)
	}
	if got.Content != m.Content || got.Hostname != m.Hostname || got.AppName != "kernel" {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestParseAutoDetect(t *testing.T) {
	m5, err := Parse("<34>1 2023-07-01T00:00:00Z h a p m - hello", ref)
	if err != nil || m5.MsgID != "m" {
		t.Fatalf("5424 auto-detect failed: %v %+v", err, m5)
	}
	m3, err := Parse("<34>Oct 11 22:14:15 h su: hi", ref)
	if err != nil || m3.AppName != "su" {
		t.Fatalf("3164 auto-detect failed: %v %+v", err, m3)
	}
}

// Property: any message with printable content and valid pri survives an
// RFC 5424 format/parse round trip.
func TestQuickRoundTrip5424(t *testing.T) {
	f := func(fac uint8, sev uint8, host, app, content string) bool {
		m := &Message{
			Facility:  Facility(fac % 24),
			Severity:  Severity(sev % 8),
			Timestamp: time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC),
			Hostname:  sanitizeToken(host),
			AppName:   sanitizeToken(app),
			Content:   sanitizeContent(content),
		}
		got, err := ParseRFC5424(FormatRFC5424(m))
		if err != nil {
			return false
		}
		return got.Facility == m.Facility && got.Severity == m.Severity &&
			got.Hostname == m.Hostname && got.Content == m.Content
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sanitizeToken maps arbitrary strings onto valid RFC 5424 header tokens.
// A lone "-" is the NILVALUE — it parses back as the empty token — so it
// maps to the empty token here too.
func sanitizeToken(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r > ' ' && r < 127 {
			b.WriteRune(r)
		}
	}
	out := b.String()
	if len(out) > 48 {
		out = out[:48]
	}
	if out == "-" {
		return ""
	}
	return out
}

// sanitizeContent strips control characters that would break framing.
func sanitizeContent(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= ' ' && r != 127 {
			b.WriteRune(r)
		}
	}
	return strings.TrimSpace(b.String())
}
