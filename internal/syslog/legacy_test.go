package syslog

import (
	"fmt"
	"strings"
	"time"
)

// The original token-by-token string parsers, kept as the reference oracle
// for FuzzParseBytesEquivalence and the ingest benchmarks: the byte parsers
// (parse_bytes.go) must agree with them on every input.

// parsePri consumes "<NNN>" at the start of s and returns the priority and
// the remainder of the string.
func parsePri(s string) (Priority, string, error) {
	if s == "" {
		return 0, "", ErrEmpty
	}
	if s[0] != '<' {
		return 0, "", ErrNoPriority
	}
	end := strings.IndexByte(s, '>')
	if end < 2 || end > 4 {
		return 0, "", ErrBadPriority
	}
	pri := 0
	for _, c := range s[1:end] {
		if c < '0' || c > '9' {
			return 0, "", ErrBadPriority
		}
		pri = pri*10 + int(c-'0')
	}
	p := Priority(pri)
	if !p.Valid() {
		return 0, "", ErrBadPriority
	}
	return p, s[end+1:], nil
}

// parseRFC3164Legacy is the oracle for ParseRFC3164Bytes.
func parseRFC3164Legacy(raw string, ref time.Time) (*Message, error) {
	m := &Message{Raw: raw}
	pri, rest, err := parsePri(raw)
	if err != nil {
		return nil, err
	}
	m.Facility = pri.Facility()
	m.Severity = pri.Severity()

	rest, ts := consumeTimestamp(rest, ref)
	m.Timestamp = ts

	// HOSTNAME is the token up to the next space — but only if a timestamp
	// was present; otherwise the whole remainder is the content.
	if !ts.IsZero() {
		if sp := strings.IndexByte(rest, ' '); sp > 0 {
			m.Hostname = rest[:sp]
			rest = rest[sp+1:]
		}
	}

	// TAG: "app[pid]:" or "app:" — alphanumerics plus a few symbols, max 32
	// chars per the RFC (tolerated longer in practice).
	app, pid, content := splitTag(rest)
	m.AppName = app
	m.ProcID = pid
	m.Content = content
	return m, nil
}

// consumeTimestamp tries each accepted layout at the front of s. On success
// it returns the remainder after the timestamp and one following space.
func consumeTimestamp(s string, ref time.Time) (string, time.Time) {
	// RFC3339 variants: find the end at the first space.
	if len(s) >= 20 && s[4] == '-' {
		end := strings.IndexByte(s, ' ')
		if end > 0 {
			for _, layout := range rfc3164TimeLayouts[1:] {
				if t, err := time.Parse(layout, s[:end]); err == nil {
					return s[end+1:], t
				}
			}
		}
	}
	// BSD format is fixed width: "Jan _2 15:04:05" = 15 bytes.
	if len(s) >= 15 {
		if t, err := time.Parse(time.Stamp, s[:15]); err == nil {
			year := ref.Year()
			if year == 0 {
				year = 1
			}
			t = time.Date(year, t.Month(), t.Day(), t.Hour(), t.Minute(),
				t.Second(), 0, ref.Location())
			rest := s[15:]
			rest = strings.TrimPrefix(rest, " ")
			return rest, t
		}
	}
	return s, time.Time{}
}

// splitTag splits "app[pid]: content" into its parts. If no well-formed tag
// is present the whole input is returned as content.
func splitTag(s string) (app, pid, content string) {
	i := 0
	for i < len(s) {
		c := s[i]
		if c == ':' || c == '[' || c == ' ' {
			break
		}
		if !isTagChar(c) {
			return "", "", s
		}
		i++
	}
	if i == 0 || i > 48 {
		return "", "", s
	}
	app = s[:i]
	rest := s[i:]
	if strings.HasPrefix(rest, "[") {
		end := strings.IndexByte(rest, ']')
		if end < 0 {
			return "", "", s
		}
		pid = rest[1:end]
		rest = rest[end+1:]
	}
	if !strings.HasPrefix(rest, ":") {
		return "", "", s
	}
	content = strings.TrimPrefix(rest[1:], " ")
	return app, pid, content
}

// parseRFC5424Legacy is the oracle for ParseRFC5424Bytes.
func parseRFC5424Legacy(raw string) (*Message, error) {
	m := &Message{Raw: raw}
	pri, rest, err := parsePri(raw)
	if err != nil {
		return nil, err
	}
	m.Facility = pri.Facility()
	m.Severity = pri.Severity()

	// VERSION
	if !strings.HasPrefix(rest, "1 ") {
		return nil, fmt.Errorf("%w: unsupported version", ErrBadFormat)
	}
	rest = rest[2:]

	// TIMESTAMP HOSTNAME APP-NAME PROCID MSGID — space-separated tokens.
	fields := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("%w: truncated header", ErrBadFormat)
		}
		fields = append(fields, rest[:sp])
		rest = rest[sp+1:]
	}
	if fields[0] != "-" {
		t, err := time.Parse(time.RFC3339Nano, fields[0])
		if err != nil {
			return nil, fmt.Errorf("%w: bad timestamp %q", ErrBadFormat, fields[0])
		}
		m.Timestamp = t
	}
	m.Hostname = nilValue(fields[1])
	m.AppName = nilValue(fields[2])
	m.ProcID = nilValue(fields[3])
	m.MsgID = nilValue(fields[4])

	// STRUCTURED-DATA: "-" or one or more [id k="v" ...] elements.
	sd, rest, err := parseStructuredData(rest)
	if err != nil {
		return nil, err
	}
	m.Structured = sd

	// MSG: optional, preceded by a single space.
	m.Content = strings.TrimPrefix(rest, " ")
	m.Content = strings.TrimPrefix(m.Content, "\xef\xbb\xbf") // UTF-8 BOM per RFC
	return m, nil
}

func nilValue(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

func parseStructuredData(s string) (StructuredData, string, error) {
	if strings.HasPrefix(s, "-") {
		return nil, s[1:], nil
	}
	if !strings.HasPrefix(s, "[") {
		return nil, "", fmt.Errorf("%w: expected structured data", ErrBadFormat)
	}
	sd := make(StructuredData)
	for strings.HasPrefix(s, "[") {
		elemEnd := findSDEnd(s)
		if elemEnd < 0 {
			return nil, "", fmt.Errorf("%w: unterminated SD element", ErrBadFormat)
		}
		elem := s[1:elemEnd]
		s = s[elemEnd+1:]
		id, params, err := parseSDElement(elem)
		if err != nil {
			return nil, "", err
		}
		sd[id] = params
	}
	return sd, s, nil
}

// findSDEnd locates the closing ']' of the SD element opening at s[0],
// honouring escaped \] inside quoted values.
func findSDEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip escaped char
		case '"':
			inQuote = !inQuote
		case ']':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

func parseSDElement(elem string) (string, map[string]string, error) {
	sp := strings.IndexByte(elem, ' ')
	if sp < 0 {
		return elem, map[string]string{}, nil
	}
	id := elem[:sp]
	params := make(map[string]string)
	rest := elem[sp+1:]
	for rest != "" {
		rest = strings.TrimLeft(rest, " ")
		if rest == "" {
			break
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
			return "", nil, fmt.Errorf("%w: bad SD param in %q", ErrBadFormat, elem)
		}
		name := rest[:eq]
		val, remainder, err := parseQuoted(rest[eq+1:])
		if err != nil {
			return "", nil, err
		}
		params[name] = val
		rest = remainder
	}
	return id, params, nil
}

// parseQuoted consumes a leading `"..."` handling \" \\ \] escapes.
func parseQuoted(s string) (string, string, error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("%w: expected quoted value", ErrBadFormat)
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 < len(s) {
				b.WriteByte(s[i+1])
				i++
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("%w: unterminated quoted value", ErrBadFormat)
}

// parseLegacy is the oracle for ParseBytes: auto-detect, then fall back to
// RFC 3164.
func parseLegacy(raw string, ref time.Time) (*Message, error) {
	_, rest, err := parsePri(raw)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(rest, "1 ") {
		if m, err := parseRFC5424Legacy(raw); err == nil {
			return m, nil
		}
	}
	return parseRFC3164Legacy(raw, ref)
}
