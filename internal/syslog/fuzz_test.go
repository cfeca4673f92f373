package syslog

import (
	"bufio"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// Property: Parse never panics and either errors or returns a message with
// a valid priority, whatever bytes arrive off the wire.
func TestQuickParseNeverPanics(t *testing.T) {
	ref := time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	f := func(raw string) bool {
		m, err := Parse(raw, ref)
		if err != nil {
			return m == nil
		}
		return m.Facility.Valid() && m.Severity.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: prepending a valid PRI to arbitrary printable junk always
// parses as RFC 3164 (the RFC requires relays to accept malformed content).
func TestQuickAnyContentWithValidPri(t *testing.T) {
	ref := time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		pri := rng.Intn(192)
		var b strings.Builder
		n := rng.Intn(120)
		for j := 0; j < n; j++ {
			b.WriteByte(byte(32 + rng.Intn(95)))
		}
		raw := "<" + itoa(pri) + ">" + b.String()
		m, err := Parse(raw, ref)
		if err != nil {
			t.Fatalf("Parse(%q) errored: %v", raw, err)
		}
		if int(m.Priority()) != pri {
			t.Fatalf("priority mangled: %d != %d", m.Priority(), pri)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// Property: ReadFrame never panics or over-reads on arbitrary streams.
func TestQuickReadFrameRobust(t *testing.T) {
	f := func(data []byte) bool {
		r := bufio.NewReader(strings.NewReader(string(data)))
		for i := 0; i < 10; i++ {
			if _, err := ReadFrame(r); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: format/parse round trip preserves severity and facility for
// every (facility, severity) pair and both wire formats.
func TestRoundTripAllPriorities(t *testing.T) {
	ref := time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)
	for fac := Kern; fac <= Local7; fac++ {
		for sev := Emergency; sev <= Debug; sev++ {
			m := &Message{
				Facility: fac, Severity: sev,
				Timestamp: ref, Hostname: "cn1", AppName: "app",
				Content: "payload",
			}
			for _, format := range []func(*Message) string{FormatRFC3164, FormatRFC5424} {
				got, err := Parse(format(m), ref)
				if err != nil {
					t.Fatalf("fac=%v sev=%v: %v", fac, sev, err)
				}
				if got.Facility != fac || got.Severity != sev {
					t.Fatalf("priority mangled: got %v.%v want %v.%v",
						got.Facility, got.Severity, fac, sev)
				}
			}
		}
	}
}

// Real-world corpus: a grab bag of actual syslog lines must all parse.
func TestRealWorldSamples(t *testing.T) {
	ref := time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	samples := []string{
		"<6>Jul  1 09:15:22 cn042 systemd[1]: Started Session 1234 of user root.",
		"<4>Jul  1 09:15:23 cn042 kernel: [12345.678901] CPU3: Core temperature above threshold, cpu clock throttled (total events = 12345)",
		"<86>Jul  1 09:15:24 cn043 sshd[28431]: pam_unix(sshd:session): session opened for user alice by (uid=0)",
		"<13>Jul  1 09:15:25 cn044 slurmd[2211]: error: Node cn044 has low real_memory size (190000 < 256000)",
		"<165>1 2023-07-01T09:15:26.123456Z cn045 ipmiseld 991 TH01 [origin@1 sw=\"ipmiseld\"] CPU 1 Temperature Above Non-Recoverable - Asserted",
		"<30>1 2023-07-01T09:15:27Z cn046 chronyd - - - System clock wrong by 1.284911 seconds",
	}
	for _, raw := range samples {
		m, err := Parse(raw, ref)
		if err != nil {
			t.Errorf("Parse(%q): %v", raw, err)
			continue
		}
		if m.Content == "" {
			t.Errorf("Parse(%q): empty content", raw)
		}
	}
}

// errWouldBlock stands for a socket with nothing more to read yet.
var errWouldBlock = errors.New("would block")

// trickle hands out data at most chunk bytes per Read, then errWouldBlock
// on every call, which it counts.
type trickle struct {
	data    []byte
	chunk   int
	blocked int
}

func (r *trickle) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		r.blocked++
		return 0, errWouldBlock
	}
	n := copy(p[:min(len(p), r.chunk)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// FuzzReadFrame feeds arbitrary bytes, in arbitrary read sizes, through a
// FrameReader whose stream then would block. ReadFrame must not panic nor
// return a frame over maxFrameLen, and whenever FrameBuffered reports a
// frame the next ReadFrame must finish without reading on to the block:
// the TCP batch drain relies on it never to wait on the network.
func FuzzReadFrame(f *testing.F) {
	for _, s := range []string{
		"5 hello3 abc", "5 hello9 abc", "5 hello12", "5 hello12345678 x",
		"<34>one\n<34>two\r\n", "<34>torn", "0 x", "0abc\n", "01234567 x\n",
		"0012 <34>hello\n", "1048576 x", "\n\r\n\n",
	} {
		f.Add([]byte(s), uint8(255), false)
		f.Add([]byte(s), uint8(2), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8, small bool) {
		src := &trickle{data: data, chunk: 1 + int(chunk)}
		size := 64 << 10 // NewFrameReader's buffer
		if small {
			size = 16 // bufio's smallest: most lines outgrow it
		}
		fr := NewFrameReader(bufio.NewReaderSize(src, size))
		for {
			buffered, blocked := fr.FrameBuffered(), src.blocked
			frame, err := fr.ReadFrame()
			if buffered && src.blocked != blocked {
				t.Fatalf("FrameBuffered reported a frame, but ReadFrame read on to the block (frame %q, err %v)", frame, err)
			}
			if err != nil {
				return
			}
			if len(frame) > maxFrameLen {
				t.Fatalf("frame of %d bytes, over maxFrameLen", len(frame))
			}
		}
	})
}
