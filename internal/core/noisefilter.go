package core

import (
	"sync/atomic"

	"hetsyslog/internal/bucket"
	"hetsyslog/internal/collector"
)

// NoiseFilter is the pre-classification blacklist the paper proposes in
// §5.1/§6: because the traditional models' residual confusion concentrates
// on "Unimportant", administrators should be able to "blacklist specific
// kinds of messages" with the old minimum-edit-distance machinery at a
// *lower* threshold, dropping known noise before it ever reaches the
// classifier. It implements collector.Stage, so it slots ahead of the
// classification service in the pipeline.
type NoiseFilter struct {
	bk      *bucket.Bucketer
	dropped atomic.Int64
}

// DefaultNoiseThreshold is deliberately tighter than the classification
// threshold of 7 (§5.1: "a lower value for the categorization threshold")
// so the blacklist only swallows close variants of the listed exemplars.
const DefaultNoiseThreshold = 3

// NewNoiseFilter returns an empty blacklist with the given edit-distance
// threshold (<= 0 selects DefaultNoiseThreshold).
func NewNoiseFilter(threshold int) *NoiseFilter {
	if threshold <= 0 {
		threshold = DefaultNoiseThreshold
	}
	return &NoiseFilter{bk: &bucket.Bucketer{Threshold: threshold}}
}

// Blacklist registers one noise exemplar; messages within the threshold of
// it will be dropped.
func (f *NoiseFilter) Blacklist(exemplar string) {
	b, _ := f.bk.Assign(exemplar)
	f.bk.Label(b.ID, "blacklisted")
}

// Exemplars returns the number of blacklisted exemplars.
func (f *NoiseFilter) Exemplars() int { return f.bk.Len() }

// Dropped returns how many records the blacklist has swallowed.
func (f *NoiseFilter) Dropped() int64 { return f.dropped.Load() }

// Matches reports whether text falls within the blacklist, without
// mutating filter state.
func (f *NoiseFilter) Matches(text string) bool {
	_, matched := f.bk.Peek(text)
	return matched
}

// Process implements collector.Stage.
func (f *NoiseFilter) Process(r collector.Record, _ func(collector.Record)) (collector.Record, bool) {
	if r.Msg == nil {
		return r, false
	}
	if f.Matches(r.Msg.Content) {
		f.dropped.Add(1)
		return r, false
	}
	return r, true
}

var _ collector.Stage = (*NoiseFilter)(nil)
