package syslog

import (
	"fmt"
	"strings"
	"time"
)

// ParseRFC5424 parses a modern syslog message (RFC 5424 §6):
//
//	<165>1 2003-10-11T22:14:15.003Z mymachine.example.com evntslog 111 ID47
//	  [exampleSDID@32473 iut="3"] BOMAn application event log entry...
//
// The version must be 1. NILVALUE ("-") fields come back as empty strings.
//
// This is a thin wrapper over ParseRFC5424Bytes; use the byte parser
// directly on hot paths to reuse the Message allocation.
func ParseRFC5424(raw string) (*Message, error) {
	m := &Message{}
	if err := ParseRFC5424Bytes(stringBytes(raw), m); err != nil {
		return nil, err
	}
	return m, nil
}

// FormatRFC5424 renders m in RFC 5424 format.
func FormatRFC5424(m *Message) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<%d>1 ", int(m.Priority()))
	if m.Timestamp.IsZero() {
		b.WriteString("- ")
	} else {
		b.WriteString(m.Timestamp.Format(time.RFC3339Nano))
		b.WriteByte(' ')
	}
	for _, f := range []string{m.Hostname, m.AppName, m.ProcID, m.MsgID} {
		if f == "" {
			f = "-"
		}
		b.WriteString(f)
		b.WriteByte(' ')
	}
	if sd := m.SD(); len(sd) == 0 {
		b.WriteByte('-')
	} else {
		// Sort IDs for deterministic output.
		ids := make([]string, 0, len(sd))
		for id := range sd {
			ids = append(ids, id)
		}
		sortStrings(ids)
		for _, id := range ids {
			b.WriteByte('[')
			b.WriteString(id)
			params := sd[id]
			names := make([]string, 0, len(params))
			for n := range params {
				names = append(names, n)
			}
			sortStrings(names)
			for _, n := range names {
				b.WriteByte(' ')
				b.WriteString(n)
				b.WriteString(`="`)
				b.WriteString(escapeSDValue(params[n]))
				b.WriteByte('"')
			}
			b.WriteByte(']')
		}
	}
	if m.Content != "" {
		b.WriteByte(' ')
		b.WriteString(m.Content)
	}
	return b.String()
}

func escapeSDValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, `]`, `\]`)
	return v
}

func sortStrings(s []string) {
	// Insertion sort: SD elements are tiny; avoids importing sort here.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Parse auto-detects the wire format: RFC 5424 messages have "1 " after
// the PRI; anything else — including malformed 5424 — falls back to the
// RFC 3164 path, which (per that RFC's relay rules) accepts any content.
//
// This is a thin wrapper over ParseBytes; use the byte parser directly on
// hot paths to reuse the Message allocation.
func Parse(raw string, ref time.Time) (*Message, error) {
	m := &Message{}
	if err := ParseBytes(stringBytes(raw), ref, m); err != nil {
		return nil, err
	}
	return m, nil
}
