package syslog

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Parsing errors shared by both wire formats.
var (
	ErrEmpty       = errors.New("syslog: empty message")
	ErrNoPriority  = errors.New("syslog: missing <PRI> header")
	ErrBadPriority = errors.New("syslog: invalid <PRI> value")
	ErrBadFormat   = errors.New("syslog: malformed message")
)

// rfc3164TimeLayouts lists timestamp layouts accepted in the RFC 3164
// header, most common first. Real rsyslog deployments frequently emit
// RFC3339 timestamps in the legacy format position, so we accept both.
var rfc3164TimeLayouts = []string{
	time.Stamp,       // "Jan _2 15:04:05" — the canonical BSD format
	time.RFC3339,     // rsyslog's "high precision" mode
	time.RFC3339Nano, //
}

// ParseRFC3164 parses a classic BSD syslog message:
//
//	<34>Oct 11 22:14:15 mymachine su[231]: 'su root' failed on /dev/pts/8
//
// Missing timestamps and hostnames are tolerated (RFC 3164 relays are
// required to cope with them); the zero time and empty hostname result.
// The reference year for BSD timestamps (which carry no year) is taken from
// ref; pass time.Now() in production code.
//
// This is a thin wrapper over ParseRFC3164Bytes; use the byte parser
// directly on hot paths to reuse the Message allocation.
func ParseRFC3164(raw string, ref time.Time) (*Message, error) {
	m := &Message{}
	if err := ParseRFC3164Bytes(stringBytes(raw), ref, m); err != nil {
		return nil, err
	}
	return m, nil
}

func isTagChar(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '-' || c == '_' || c == '.' || c == '/':
		return true
	}
	return false
}

// FormatRFC3164 renders m in the classic BSD format.
func FormatRFC3164(m *Message) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<%d>", int(m.Priority()))
	ts := m.Timestamp
	if ts.IsZero() {
		ts = time.Date(2023, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	b.WriteString(ts.Format(time.Stamp))
	b.WriteByte(' ')
	host := m.Hostname
	if host == "" {
		host = "-"
	}
	b.WriteString(host)
	if tag := m.Tag(); tag != "" {
		b.WriteByte(' ')
		b.WriteString(tag)
		b.WriteByte(':')
	}
	b.WriteByte(' ')
	b.WriteString(m.Content)
	return b.String()
}
