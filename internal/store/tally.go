package store

// tallyKey names one counter of an aggregation over a shard: the value
// span being counted, and for Pivot the group it is counted under and
// which sub-field it belongs to. Spans are interned and canonical per
// shard, so key equality is exact-case string equality.
type tallyKey struct {
	by  span
	v   span
	sub int32
}

// tally counts documents per tallyKey in an open-addressed table with
// linear probing. Terms and Pivot do one increment per matching document
// per grouped field; on the dashboard's unfiltered views that is hundreds
// of thousands of increments over a few hundred distinct keys, and Go's
// map spent more than half of a refresh hashing 28-byte struct keys for
// them (BenchmarkDashboardReads: pivot 11.3 ms with map[tallyKey]int,
// 3.9 ms with this table). The table is pooled with its evaluator and
// reset between shards.
type tally struct {
	keys   []tallyKey
	counts []int32 // 0 marks an empty slot
	used   int
}

func (k tallyKey) hash() uint64 {
	h := (uint64(k.v.block)<<32 | uint64(k.v.off)) * 0x9E3779B97F4A7C15
	h ^= (uint64(k.by.block)<<32 | uint64(k.by.off) | uint64(uint32(k.sub))<<48) * 0xC2B2AE3D27D4EB4F
	return h ^ h>>29
}

// add increments k's counter.
func (t *tally) add(k tallyKey) {
	if 2*t.used >= len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		switch {
		case t.counts[i] == 0:
			t.keys[i], t.counts[i] = k, 1
			t.used++
			return
		case t.keys[i] == k:
			t.counts[i]++
			return
		}
	}
}

// grow doubles the table (minimum 64 slots) and reinserts every counter.
func (t *tally) grow() {
	keys, counts := t.keys, t.counts
	n := max(64, 2*len(keys))
	t.keys, t.counts = make([]tallyKey, n), make([]int32, n)
	mask := uint64(n - 1)
	for j, c := range counts {
		if c == 0 {
			continue
		}
		i := keys[j].hash() & mask
		for t.counts[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.counts[i] = keys[j], c
	}
}

// each calls fn for every counter, in no particular order.
func (t *tally) each(fn func(k tallyKey, count int)) {
	for i, c := range t.counts {
		if c != 0 {
			fn(t.keys[i], int(c))
		}
	}
}

// reset empties the table, keeping its capacity unless it has grown past
// maxScratchBuckets slots.
func (t *tally) reset() {
	if len(t.keys) > maxScratchBuckets {
		*t = tally{}
		return
	}
	clear(t.counts)
	t.used = 0
}
