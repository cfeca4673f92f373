package store

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// termLists walks t and returns every term it holds with its list — what
// the map the table replaced would hold — for tests that compare whole
// dictionaries.
func (s *shard) termLists(t *termTable) map[string]*postings {
	lists := make(map[string]*postings, t.used)
	for _, v := range t.slots {
		if v != 0 {
			p := s.postAt(v - 1)
			lists[s.arena.keyView(p.key)] = p
		}
	}
	return lists
}

// termRef is the reference a shard's dictionaries are held to: for every
// body token and every field key (appendFieldKey of a document's first
// pair of each field name), the ascending offsets of the documents that
// carry it, docs[i] being the document at offset i.
func termRef(docs []Doc) (text, field map[string][]int32) {
	text, field = map[string][]int32{}, map[string][]int32{}
	for off, d := range docs {
		seen := map[string]bool{}
		for _, tok := range Analyze(d.Body) {
			if !seen[tok] {
				seen[tok] = true
				text[tok] = append(text[tok], int32(off))
			}
		}
		names := map[string]bool{}
		for _, f := range d.Fields {
			if !names[f.K] {
				names[f.K] = true
				k := string(appendFieldKey(nil, f.K, f.V))
				field[k] = append(field[k], int32(off))
			}
		}
	}
	return text, field
}

// checkTermTables holds both of sh's dictionaries to the reference built
// from docs: the same terms (walked and counted), every term found by a
// lookup with exactly its documents, absent terms not found, and each
// table a power of two at most 3/4 full.
func checkTermTables(t *testing.T, label string, sh *shard, docs []Doc) {
	t.Helper()
	textRef, fieldRef := termRef(docs)
	for _, d := range []struct {
		name string
		tab  *termTable
		ref  map[string][]int32
	}{{"text", &sh.text, textRef}, {"field", &sh.field, fieldRef}} {
		walked := sh.termLists(d.tab)
		if len(walked) != len(d.ref) || d.tab.used != len(d.ref) {
			t.Fatalf("%s: %s table walks %d terms and counts %d, reference %d", label, d.name, len(walked), d.tab.used, len(d.ref))
		}
		if n := len(d.tab.slots); n&(n-1) != 0 || 4*d.tab.used > 3*n {
			t.Fatalf("%s: %s table holds %d terms in %d slots", label, d.name, d.tab.used, n)
		}
		for term, want := range d.ref {
			p := sh.lookup(d.tab, term)
			if p == nil || p != walked[term] {
				t.Fatalf("%s: %s term %.40q: lookup %p, walk %p", label, d.name, term, p, walked[term])
			}
			if got := sh.appendPostings(nil, p, 0); !slices.Equal(got, want) {
				t.Fatalf("%s: %s term %.40q lists %v, reference %v", label, d.name, term, got, want)
			}
			for _, absent := range []string{term + "\x00", term[:len(term)-1] + "\x01"} {
				if _, ok := d.ref[absent]; !ok && sh.lookup(d.tab, absent) != nil {
					t.Fatalf("%s: %s term %.40q found though no document has it", label, d.name, absent)
				}
			}
		}
	}
}

// termWords mixes the shapes a term key can take: lowercase ASCII (keyed
// in the body), mixed case and non-ASCII (folded, so copied into the
// arena), dots, underscores and digits.
var termWords = []string{
	"link", "down", "eth0", "error", "real_memory", "10.3.7.1", "cn101",
	"Link", "DOWN", "Eth0", "größe", "ÉCHEC", "naïve", "日本語", "İstanbul",
	"ΣΊΣΥΦΟΣ", "x", "A", "ß",
}

// termBody draws a body of n words: words from termWords, and words no
// other body has (uniq), some in upper case, so the dictionary grows.
func termBody(rng *rand.Rand, n int, uniq *int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString([]string{" ", "=", ", ", ": ", "/"}[rng.Intn(5)])
		}
		switch rng.Intn(4) {
		case 0:
			*uniq++
			w := fmt.Sprintf("job%d", *uniq)
			if rng.Intn(3) == 0 {
				w = strings.ToUpper(w)
			}
			b.WriteString(w)
		default:
			b.WriteString(termWords[rng.Intn(len(termWords))])
		}
	}
	return b.String()
}

// TestTermTableDifferential drives a one-shard store through rounds of
// indexing and retention and holds its term tables to a map after each
// step. Bodies include ones over arenaOversize whose tokens sit past the
// 64 KiB a key can address inside a block, and tokens 64 KiB long or
// longer; the distinct terms force several doublings; rounds end with
// deletes and a Compact rebuild, or with everything expired and the
// in-place reset.
func TestTermTableDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	st := New(1)
	sh := st.shards[0]
	base := time.Unix(1_700_000_000, 0)
	var docs []Doc
	uniq := 0
	for round := 0; round < 8; round++ {
		batch := make([]Doc, 0, 1500)
		for i := 0; i < cap(batch); i++ {
			n := 1 + rng.Intn(12)
			if rng.Intn(300) == 0 {
				n = 12_000 // ~90 KiB: its own arena block, tokens past 64 KiB
			}
			body := termBody(rng, n, &uniq)
			switch rng.Intn(400) {
			case 0:
				body += " " + strings.Repeat("z", 70_000) // copied whole
			case 1:
				body = "a " + strings.Repeat("y", wholeBlock-1) // longest aliased key
			case 2:
				body = "a " + strings.Repeat("Y", wholeBlock) // folded, whole block
			}
			batch = append(batch, Doc{
				Time: base.Add(time.Duration(len(docs)+i) * time.Second),
				Body: body,
				Fields: F(
					"host", fmt.Sprintf("CN%03d", rng.Intn(200)),
					"app", termWords[rng.Intn(len(termWords))],
					"host", "shadowed",
					"job", fmt.Sprintf("j%d", rng.Intn(5000)),
				),
			})
		}
		st.IndexBatch(batch)
		docs = append(docs, batch...)
		checkTermTables(t, fmt.Sprintf("round %d indexed", round), sh, docs)
		if round%3 == 2 {
			st.DeleteBefore(base.Add(time.Duration(len(docs)+1) * time.Second))
			st.Compact()
			docs = docs[:0]
			checkTermTables(t, fmt.Sprintf("round %d expired", round), sh, docs)
			continue
		}
		live := docs[:0]
		for _, d := range docs {
			if rng.Intn(3) == 0 {
				st.Delete(d.ID)
			} else {
				live = append(live, d)
			}
		}
		st.Compact()
		docs = live
		checkTermTables(t, fmt.Sprintf("round %d compacted", round), sh, docs)
	}
	if uniq < 10_000 {
		t.Fatalf("only %d distinct words: the table never doubled far", uniq)
	}
	if got, want := st.Stats().TextTerms, sh.text.used; got != want {
		t.Fatalf("Stats.TextTerms = %d, table holds %d", got, want)
	}
}

// FuzzTermTable reads its input as a program over a one-shard store —
// index a body cut from the input, delete a document, Compact, expire
// everything — and holds the term tables to the reference after every
// Compact and at the end.
func FuzzTermTable(f *testing.F) {
	f.Add([]byte("\x01Link down eth0\x02ÉCHEC größe naïve\x06\x00\x07\x01job1 job2 JOB3\x0f\x07"))
	f.Add([]byte("\x03a.b.c_d x\x03A.B.C_D X\x06\x01\x07\xf2yyyy"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		st := New(1)
		sh := st.shards[0]
		base := time.Unix(1_700_000_000, 0)
		var docs []Doc
		for len(prog) > 0 {
			op := prog[0]
			prog = prog[1:]
			switch {
			case op&7 == 6: // delete the document the next byte picks; it
				// stays in the lists until the next Compact
				if len(docs) == 0 || len(prog) == 0 {
					continue
				}
				i := int(prog[0]) % len(docs)
				prog = prog[1:]
				if st.Delete(docs[i].ID) {
					docs = slices.Delete(docs, i, i+1)
				}
			case op&7 == 7: // Compact; with bit 3 set, everything expires first
				if op&8 != 0 {
					st.DeleteBefore(base.AddDate(1, 0, 0))
					docs = docs[:0]
				}
				st.Compact()
				checkTermTables(t, "compacted", sh, docs)
			default: // index the next op>>3 bytes as a body and a field value
				n := min(int(op>>3), len(prog))
				body := string(prog[:n])
				prog = prog[n:]
				if op&7 == 5 && n > 0 {
					// Past 64 KiB; one token throughout when every byte is
					// a token byte.
					body = strings.Repeat(body, arenaBlockSize/n+1)
				}
				docs = append(docs, Doc{
					Time:   base.Add(time.Duration(len(docs)) * time.Second),
					Body:   body,
					Fields: F("k", body[:min(3, len(body))]),
				})
				st.IndexBatch(docs[len(docs)-1:])
			}
		}
		st.Compact()
		checkTermTables(t, "final", sh, docs)
	})
}
