package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hetsyslog/internal/raceflag"
)

// randomCodecDoc builds a doc exercising the codec's edge geometry:
// empty bodies, empty field sets, empty keys/values, zero and pre-epoch
// timestamps, sub-second nanos, and (when rawBytes) strings that are not
// valid UTF-8.
func randomCodecDoc(rng *rand.Rand, rawBytes bool) Doc {
	randStr := func(maxLen int) string {
		n := rng.Intn(maxLen + 1)
		b := make([]byte, n)
		for i := range b {
			if rawBytes {
				b[i] = byte(rng.Intn(256))
			} else {
				b[i] = byte(' ' + rng.Intn(95)) // printable ASCII: JSON-stable
			}
		}
		return string(b)
	}
	var ts time.Time
	switch rng.Intn(5) {
	case 0:
		ts = time.Time{}
	case 1: // pre-epoch, with nanos
		ts = time.Unix(-int64(rng.Intn(1<<30)), int64(rng.Intn(1e9))).UTC()
	case 2: // deep pre-epoch (year > 0 so the JSON oracle can render it)
		ts = time.Date(1+rng.Intn(1900), 1, 1, 0, 0, 0, rng.Intn(1e9), time.UTC)
	default:
		ts = time.Unix(int64(rng.Int31()), int64(rng.Intn(1e9))).UTC()
	}
	nf := rng.Intn(5)
	fields := make(Fields, 0, nf)
	for i := 0; i < nf; i++ {
		fields = append(fields, Field{K: fmt.Sprintf("k%d%s", i, randStr(4)), V: randStr(12)})
	}
	return Doc{
		ID:     rng.Int63() - rng.Int63(), // negative ids too: varint, not uvarint
		Time:   ts,
		Fields: fields,
		Body:   randStr(40),
	}
}

// docsEquivalent compares docs the way the store distinguishes them:
// same instant (Equal, ignoring wall-clock rendering/location), same
// fields in order, same body, same id.
func docsEquivalent(t *testing.T, label string, got, want []Doc) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d docs, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID {
			t.Fatalf("%s: doc %d id = %d, want %d", label, i, g.ID, w.ID)
		}
		if !g.Time.Equal(w.Time) {
			t.Fatalf("%s: doc %d time = %v, want %v", label, i, g.Time, w.Time)
		}
		if w.Time.IsZero() != g.Time.IsZero() {
			t.Fatalf("%s: doc %d IsZero = %v, want %v", label, i, g.Time.IsZero(), w.Time.IsZero())
		}
		if g.Body != w.Body {
			t.Fatalf("%s: doc %d body = %q, want %q", label, i, g.Body, w.Body)
		}
		if len(g.Fields) != len(w.Fields) {
			t.Fatalf("%s: doc %d has %d fields, want %d", label, i, len(g.Fields), len(w.Fields))
		}
		for f := range w.Fields {
			if g.Fields.Value(w.Fields[f].K) != w.Fields[f].V {
				t.Fatalf("%s: doc %d field %q = %q, want %q", label, i,
					w.Fields[f].K, g.Fields.Value(w.Fields[f].K), w.Fields[f].V)
			}
		}
	}
}

// TestDocCodecRoundTripEquivalentToJSON is the codec's differential
// property: for random JSON-safe docs, decoding the binary form yields
// exactly what the JSON wire form yields — same ids, instants (including
// the zero time and pre-epoch values), field sets, and bodies.
func TestDocCodecRoundTripEquivalentToJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		docs := make([]Doc, rng.Intn(20))
		for i := range docs {
			docs[i] = randomCodecDoc(rng, false)
		}

		bin, err := DecodeDocs(EncodeDocs(nil, docs), nil)
		if err != nil {
			t.Fatalf("trial %d: binary decode: %v", trial, err)
		}
		raw, err := json.Marshal(indexBatchBody{Docs: docs})
		if err != nil {
			t.Fatalf("trial %d: json encode: %v", trial, err)
		}
		var viaJSON indexBatchBody
		if err := json.Unmarshal(raw, &viaJSON); err != nil {
			t.Fatalf("trial %d: json decode: %v", trial, err)
		}

		label := fmt.Sprintf("trial %d", trial)
		docsEquivalent(t, label+" binary vs original", bin, docs)
		docsEquivalent(t, label+" binary vs json oracle", bin, viaJSON.Docs)
	}
}

// TestDocCodecRoundTripRawBytes pins the property JSON cannot offer: the
// binary codec is byte-exact for strings that are not valid UTF-8, where
// the JSON path would substitute U+FFFD.
func TestDocCodecRoundTripRawBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		docs := make([]Doc, 1+rng.Intn(10))
		for i := range docs {
			docs[i] = randomCodecDoc(rng, true)
		}
		got, err := DecodeDocs(EncodeDocs(nil, docs), nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		docsEquivalent(t, fmt.Sprintf("trial %d", trial), got, docs)
	}
}

// TestDocCodecRejectsCorruptPayloads: truncations and flipped version
// bytes must error (the version flip with the typed ErrCodecVersion, so
// HTTP handlers can answer 415), never panic or return partial batches.
func TestDocCodecRejectsCorruptPayloads(t *testing.T) {
	docs := []Doc{{Time: time.Unix(10, 0).UTC(), Fields: F("hostname", "cn001"), Body: "usb device connected"}}
	payload := EncodeDocs(nil, docs)

	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeDocs(payload[:cut], nil); err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", cut, len(payload))
		}
	}
	vflip := append([]byte(nil), payload...)
	vflip[3] = 0x7f
	if _, err := DecodeDocs(vflip, nil); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("version flip error = %v, want ErrCodecVersion", err)
	}
	trailing := append(append([]byte(nil), payload...), 0x00)
	if _, err := DecodeDocs(trailing, nil); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
	garbage := []byte("{\"docs\":[]}")
	if _, err := DecodeDocs(garbage, nil); err == nil {
		t.Fatal("JSON body decoded as binary")
	}
}

// TestDocCodecDecodeClaimedCountBounded: a payload whose doc count claims
// more docs than its bytes can hold must be refused before the decoder
// reserves room for them. The payload here is 1 MiB: the header, a count
// of 1 048 568 (one per remaining byte, which a bytes-only check admits),
// and zeros — each 5 of which decode as an empty doc. Decoding it may
// cost a few copies of the payload, never hundreds.
func TestDocCodecDecodeClaimedCountBounded(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const size = 1 << 20
	payload := AppendDocsHeader(nil, 1_048_568)
	payload = append(payload, make([]byte, size-len(payload))...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := DecodeDocs(payload, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("over-claimed count decoded successfully")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*size {
		t.Errorf("DecodeDocs allocated %d bytes (%.0f× the %d-byte payload) before refusing it, want <= 8×",
			got, float64(got)/size, size)
	}
}

// FuzzDecodeDocs fuzzes the decoder every /index/batch binary body and
// every replayed router spool frame goes through: it never panics, and
// whatever it accepts re-encodes to a payload that decodes to the same
// docs — same ids, instants, bodies, and fields in order.
func FuzzDecodeDocs(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for _, rawBytes := range []bool{false, true} {
		for trial := 0; trial < 4; trial++ {
			docs := make([]Doc, rng.Intn(6))
			for i := range docs {
				docs[i] = randomCodecDoc(rng, rawBytes)
			}
			f.Add(EncodeDocs(nil, docs))
		}
	}
	payload := EncodeDocs(nil, []Doc{{Time: time.Unix(10, 0).UTC(), Fields: F("hostname", "cn001"), Body: "usb device connected"}})
	for cut := 0; cut < len(payload); cut++ {
		f.Add(payload[:cut])
	}
	vflip := append([]byte(nil), payload...)
	vflip[3] = 0x7f
	f.Add(vflip)

	f.Fuzz(func(t *testing.T, payload []byte) {
		docs, err := DecodeDocs(payload, nil)
		if err != nil {
			return
		}
		again, err := DecodeDocs(EncodeDocs(nil, docs), nil)
		if err != nil {
			t.Fatalf("re-encoded batch of %d docs does not decode: %v", len(docs), err)
		}
		if len(again) != len(docs) {
			t.Fatalf("re-encoded batch decodes to %d docs, want %d", len(again), len(docs))
		}
		for i, d := range docs {
			g := again[i]
			if g.ID != d.ID || !g.Time.Equal(d.Time) || g.Body != d.Body || len(g.Fields) != len(d.Fields) {
				t.Fatalf("doc %d round-trips to %+v, want %+v", i, g, d)
			}
			for j := range d.Fields {
				if g.Fields[j] != d.Fields[j] {
					t.Fatalf("doc %d field %d round-trips to %q, want %q", i, j, g.Fields[j], d.Fields[j])
				}
			}
		}
	})
}

// TestDocCodecEncodeSteadyStateAllocs enforces the router-side bar: once
// the destination buffer has grown to batch size, re-encoding a batch
// performs zero heap allocations — the whole encode is appends into the
// caller's buffer. Skipped under -race like every AllocsPerRun ceiling.
func TestDocCodecEncodeSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	docs := make([]Doc, 256)
	for i := range docs {
		docs[i] = Doc{
			Time:   time.Unix(int64(i), 0).UTC(),
			Fields: F("hostname", fmt.Sprintf("cn%03d", i%64), "app", "kernel", "_part", "7"),
			Body:   fmt.Sprintf("CPU %d temperature above threshold", i),
		}
	}
	buf := EncodeDocs(nil, docs) // warm the buffer to full batch capacity
	if n := testing.AllocsPerRun(20, func() {
		buf = EncodeDocs(buf[:0], docs)
	}); n != 0 {
		t.Errorf("EncodeDocs steady-state allocs/op = %v, want 0", n)
	}
}

// TestDocCodecDecodeAllocsBounded pins the decode side's design: one
// backing string plus the doc and field slabs, independent of how many
// string fields the batch carries (no per-field allocations).
func TestDocCodecDecodeAllocsBounded(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	docs := make([]Doc, 128)
	for i := range docs {
		docs[i] = Doc{
			Time:   time.Unix(int64(i), 0).UTC(),
			Fields: F("hostname", fmt.Sprintf("cn%03d", i), "app", "sshd", "severity", "info"),
			Body:   fmt.Sprintf("session %d opened", i),
		}
	}
	payload := EncodeDocs(nil, docs)
	n := testing.AllocsPerRun(20, func() {
		if _, err := DecodeDocs(payload, nil); err != nil {
			t.Fatal(err)
		}
	})
	// 1 backing string + 1 doc slice + field slab growth (ldexp'd by the
	// append doubling): anything beyond ~8 means a per-doc or per-field
	// allocation crept in (128 docs × 4 strings would show as 500+).
	if n > 8 {
		t.Errorf("DecodeDocs allocs/op = %v for 128 docs, want <= 8 (per-field allocation regression)", n)
	}
}
