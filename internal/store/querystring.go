package store

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"
)

// ParseQueryString parses a compact one-line query language for
// interactive use (the GET /search?q=... endpoint and CLI tools):
//
//	temperature throttled            full-text: both tokens must appear
//	app:sshd hostname:cn101          field equality
//	after:2023-07-01T00:00:00Z       time lower bound (inclusive)
//	before:2023-07-02T00:00:00Z      time upper bound (exclusive)
//	-preauth                         negated full-text token
//	-app:sshd                        negated field equality
//
// Terms combine with AND semantics. An empty string matches everything.
// A query that is not valid UTF-8 is refused, so the query string accepts
// no query the JSON DSL, which cannot carry such bytes unchanged, could not
// also express.
func ParseQueryString(s string) (Query, error) {
	if !utf8.ValidString(s) {
		return nil, fmt.Errorf("store: query is not valid UTF-8")
	}
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return MatchAll{}, nil
	}
	var must []Query
	var mustNot []Query
	var textTokens []string
	tr := TimeRange{}
	haveRange := false

	for _, tok := range fields {
		switch {
		case strings.HasPrefix(tok, "-") && len(tok) > 1:
			// A negated field term (-app:sshd) must become MustNot(Term),
			// not a full-text match on the literal "app:sshd" — the latter
			// silently excludes the wrong documents.
			neg := tok[1:]
			switch {
			case strings.HasPrefix(neg, "after:"), strings.HasPrefix(neg, "before:"):
				return nil, fmt.Errorf("store: cannot negate %q (invert the bound instead)", tok)
			case strings.Contains(neg, ":"):
				parts := strings.SplitN(neg, ":", 2)
				if parts[0] == "" || parts[1] == "" {
					return nil, fmt.Errorf("store: bad field term %q", tok)
				}
				value := strings.ReplaceAll(parts[1], "+", " ")
				mustNot = append(mustNot, Term{Field: parts[0], Value: value})
			default:
				mustNot = append(mustNot, Match{Text: neg})
			}
		case strings.HasPrefix(tok, "after:"):
			t, err := time.Parse(time.RFC3339, strings.TrimPrefix(tok, "after:"))
			if err != nil {
				return nil, fmt.Errorf("store: bad after: %w", err)
			}
			tr.From = t
			haveRange = true
		case strings.HasPrefix(tok, "before:"):
			t, err := time.Parse(time.RFC3339, strings.TrimPrefix(tok, "before:"))
			if err != nil {
				return nil, fmt.Errorf("store: bad before: %w", err)
			}
			tr.To = t
			haveRange = true
		case strings.Contains(tok, ":"):
			parts := strings.SplitN(tok, ":", 2)
			if parts[0] == "" || parts[1] == "" {
				return nil, fmt.Errorf("store: bad field term %q", tok)
			}
			// Categories and other values may contain spaces; the query
			// language uses '+' as the space stand-in.
			value := strings.ReplaceAll(parts[1], "+", " ")
			must = append(must, Term{Field: parts[0], Value: value})
		default:
			textTokens = append(textTokens, tok)
		}
	}
	if len(textTokens) > 0 {
		must = append(must, Match{Text: strings.Join(textTokens, " ")})
	}
	if haveRange {
		must = append(must, tr)
	}
	if len(mustNot) == 0 && len(must) == 1 {
		return must[0], nil
	}
	if len(mustNot) == 0 && len(must) == 0 {
		return MatchAll{}, nil
	}
	return Bool{Must: must, MustNot: mustNot}, nil
}
