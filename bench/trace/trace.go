// Package trace is the benchmark's in-memory span recorder. The driver
// records a span around every call it makes into a layer's public
// functions; spans stay in memory for the run and are written out once at
// exit. From them the package derives each span's self time (its duration
// minus the part its children cover) and the layer budget: nanoseconds per
// record by layer, as shares of a stated base with the remainder named.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call. Start and End are nanoseconds since the
// recorder's epoch. Parent is the ID of the span that caused this one, 0
// for a root. Ref ties the spans of one unit of work together: the flush
// batch number on the write side, the refresh number on the read side.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Ref    int64  `json:"ref"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder collects spans up to a fixed cap; spans past the cap are
// counted, not kept, so a long run cannot grow memory without bound. Safe
// for concurrent use.
type Recorder struct {
	epoch time.Time
	max   int

	mu      sync.Mutex
	spans   []Span
	dropped int64
}

// NewRecorder returns a recorder keeping at most max spans.
func NewRecorder(max int) *Recorder {
	return &Recorder{epoch: time.Now(), max: max}
}

// Add records one finished span and returns its ID (0 when the cap was
// reached and the span was dropped).
func (r *Recorder) Add(name string, parent int32, ref int64, start, end time.Time) int32 {
	id := r.Reserve(name, parent, ref, start)
	r.Finish(id, end)
	return id
}

// Reserve allocates a span ID before the call it times, so children
// recorded during the call can name it as their parent; Finish fills it
// in. A reserved span never finished is left out by Spans.
func (r *Recorder) Reserve(name string, parent int32, ref int64, start time.Time) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.max {
		r.dropped++
		return 0
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name, Ref: ref,
		Start: start.Sub(r.epoch).Nanoseconds(), End: -1,
	})
	return id
}

// Finish closes a reserved span; ID 0 (a dropped span) is ignored.
func (r *Recorder) Finish(id int32, end time.Time) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

// Since converts a wall-clock reading to the recorder's clock: nanoseconds
// since its epoch, the unit of Span.Start and Span.End.
func (r *Recorder) Since(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// Spans returns a copy of the finished spans and how many were dropped
// at the cap.
func (r *Recorder) Spans() ([]Span, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out, r.dropped
}

// File is the on-disk form of one traced run.
type File struct {
	Workload string `json:"workload"`
	Dropped  int64  `json:"dropped_spans"`
	Spans    []Span `json:"spans"`
}

// WriteFile writes the recorder's spans as JSON.
func (r *Recorder) WriteFile(path, workload string) error {
	spans, dropped := r.Spans()
	data, err := json.Marshal(File{Workload: workload, Dropped: dropped, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns each span's self time by ID: its duration minus the
// union of the intervals its direct children cover inside it. Children
// that overlap each other (a concurrent fan-out) are counted once, and a
// child reaching outside its parent is clipped to it.
func SelfTimes(spans []Span) map[int32]int64 {
	children := make(map[int32][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.Dur() - covered
	}
	return self
}

// Slowest returns, for every span named parent, the longest duration
// among the spans named child that start inside it — the replica a
// fan-out waited for. Children are matched by time, not by Parent, so it
// also serves children recorded on the far side of a network hop that
// could not be told their parent's ID. Results are in parent start order.
func Slowest(spans []Span, parent, child string) (parents []Span, slowest []int64) {
	var kids []Span
	for _, s := range spans {
		switch s.Name {
		case parent:
			parents = append(parents, s)
		case child:
			kids = append(kids, s)
		}
	}
	sort.Slice(parents, func(a, b int) bool { return parents[a].Start < parents[b].Start })
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	slowest = make([]int64, len(parents))
	k := 0
	for i, p := range parents {
		for k < len(kids) && kids[k].Start < p.Start {
			k++
		}
		for j := k; j < len(kids) && kids[j].Start <= p.End; j++ {
			slowest[i] = max(slowest[i], kids[j].Dur())
		}
	}
	return parents, slowest
}

// Share is one row of the layer budget.
type Share struct {
	Layer    string  `json:"layer"`
	NsPerRec float64 `json:"ns_per_rec"`
	Share    float64 `json:"share"`
}

// Residual is the budget row holding whatever the named layers do not
// account for.
const Residual = "residual"

// Budget turns per-layer nanoseconds per record into shares of base (the
// whole cost per record the layers are being set against), in the order
// given, and appends the residual row: base minus the layers' sum. The
// shares therefore sum to one by construction; a negative residual means
// the layers' timed intervals overlapped (they ran in parallel) by more
// than the untimed remainder.
func Budget(base float64, order []string, layerNs map[string]float64) []Share {
	out := make([]Share, 0, len(order)+1)
	sum := 0.0
	for _, l := range order {
		ns := layerNs[l]
		sum += ns
		out = append(out, Share{Layer: l, NsPerRec: ns, Share: ratio(ns, base)})
	}
	return append(out, Share{Layer: Residual, NsPerRec: base - sum, Share: ratio(base-sum, base)})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
