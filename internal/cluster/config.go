// Package cluster turns the single-node Tivan store into a multi-node
// story: a consistent-hash router sink spreads ingest across N store
// nodes over their HTTP index endpoints with a configurable replication
// factor, and a query coordinator scatter-gathers searches and
// aggregations across the nodes and merges the results exactly.
//
// Placement works in two layers. Every document maps to one of a fixed
// number of *partitions* by hashing its routing key (hostname) together
// with a coarse time slot — the "time+hash" routing from ROADMAP item 2:
// one host's traffic stays groupable while still spreading over nodes as
// time advances. Each partition is then owned by an ordered list of
// nodes chosen by rendezvous (highest-random-weight) hashing; the first
// Replication owners store a copy of every document in the partition.
// Adding or removing a node only remaps the partitions it participated
// in, which is all the consistency a log store needs.
//
// Replication is what makes the merge exact: a replicated document
// exists on R nodes, so the coordinator never queries "all nodes" — it
// picks one live owner per partition and restricts each node's query to
// the partitions it was picked for (documents carry their partition in
// the PartitionField metadata field). Every partition is counted exactly
// once, and a dead node's partitions fail over to their next live owner.
//
// Delivery reuses the PR-4 resilience machinery per node: each node gets
// its own circuit breaker and (optionally) its own disk spool, so a dead
// node degrades to spool-and-replay for its share of the traffic while
// the surviving replicas keep accepting writes — zero acknowledged-record
// loss at Replication >= 2.
package cluster

import (
	"errors"
	"fmt"
	"time"
)

// PartitionField is the metadata field the router stamps on every
// document with its partition id. The coordinator's per-node partition
// restriction filters on it; it rides along in search hits like any
// other metadata field.
const PartitionField = "_part"

// Defaults applied by Config.withDefaults.
const (
	DefaultPartitions       = 32
	DefaultReplication      = 2
	DefaultTimeSlice        = time.Hour
	DefaultReplayInterval   = 250 * time.Millisecond
	DefaultHTTPTimeout      = 30 * time.Second
	DefaultBreakerThreshold = 3
	DefaultQueryCacheSize   = 256
)

// Config describes the cluster membership and the router/coordinator
// knobs. The zero value of every optional field means "use the default".
type Config struct {
	// Nodes are the store nodes' HTTP base URLs (e.g.
	// "http://10.0.0.1:9200"), in a stable order: rendezvous placement
	// hashes the URL strings, so renaming a node remaps its partitions.
	Nodes []string
	// Replication is how many nodes store a copy of each document
	// (default 2, clamped nowhere — Validate rejects it above len(Nodes)).
	Replication int
	// Partitions is the number of hash partitions documents map onto
	// (default 32). It bounds placement granularity, not capacity; changing
	// it reshuffles placement, so pick it once per cluster.
	Partitions int
	// TimeSlice is the coarse time bucket mixed into the partition hash
	// (default 1h): records from one host within a slice share a
	// partition, and successive slices move the host across partitions.
	TimeSlice time.Duration
	// SpoolDir, when set, gives each node a disk spill queue in
	// SpoolDir/node-<i>: batches a node refuses spool there and replay
	// when it recovers. Empty disables spooling (a node outage then
	// surfaces as a router write error once every replica of a record is
	// unreachable).
	SpoolDir string
	// SpoolMaxBytes bounds each per-node spool (0 = unbounded).
	SpoolMaxBytes int64
	// BreakerThreshold is the consecutive failures that trip a node's
	// circuit breaker (default 3).
	BreakerThreshold int
	// RetryBackoff / MaxRetryBackoff shape each node breaker's backoff
	// ladder (defaults, and the jitter, from resilience.NewBreaker; node i
	// seeds its jitter with i+1 so breakers desynchronize).
	RetryBackoff    time.Duration
	MaxRetryBackoff time.Duration
	// ReplayInterval is how often each node's replayer polls its spool
	// (default 250ms).
	ReplayInterval time.Duration
	// HTTPTimeout bounds each HTTP call to a node (default 30s). The
	// caller's context still applies on top.
	HTTPTimeout time.Duration
	// QueryCacheSize bounds the coordinator's merged-result cache in
	// entries (0 = default 256, negative = disabled). The cache also
	// requires Gen: without an ingest signal there is nothing to key
	// freshness on, so a nil Gen disables caching regardless.
	QueryCacheSize int
	// Gen is the shared ingest generation: the router bumps it when data
	// reaches a node, the coordinator keys its query cache on it. Wire the
	// SAME *Generation into the router and coordinator of a front. nil
	// disables the query cache.
	Gen *Generation
}

// Validate reports every violation at once, errors.Join-style, matching
// collector.Config's contract.
func (c Config) Validate() error {
	var errs []error
	if len(c.Nodes) == 0 {
		errs = append(errs, errors.New("cluster: Nodes must list at least one store node"))
	}
	seen := make(map[string]bool, len(c.Nodes))
	for _, n := range c.Nodes {
		if n == "" {
			errs = append(errs, errors.New("cluster: empty node URL"))
		} else if seen[n] {
			errs = append(errs, fmt.Errorf("cluster: duplicate node URL %q", n))
		}
		seen[n] = true
	}
	if c.Replication < 0 {
		errs = append(errs, fmt.Errorf("cluster: Replication must be >= 1 (got %d)", c.Replication))
	}
	if c.Replication > len(c.Nodes) && len(c.Nodes) > 0 {
		errs = append(errs, fmt.Errorf("cluster: Replication %d exceeds node count %d",
			c.Replication, len(c.Nodes)))
	}
	if c.Partitions < 0 {
		errs = append(errs, fmt.Errorf("cluster: Partitions must be positive (got %d)", c.Partitions))
	}
	if c.TimeSlice < 0 {
		errs = append(errs, fmt.Errorf("cluster: TimeSlice must be >= 0 (got %v)", c.TimeSlice))
	}
	if c.SpoolMaxBytes < 0 {
		errs = append(errs, fmt.Errorf("cluster: SpoolMaxBytes must be >= 0 (got %d)", c.SpoolMaxBytes))
	}
	if c.SpoolMaxBytes > 0 && c.SpoolDir == "" {
		errs = append(errs, fmt.Errorf("cluster: SpoolMaxBytes %d set without SpoolDir", c.SpoolMaxBytes))
	}
	if c.BreakerThreshold < 0 {
		errs = append(errs, fmt.Errorf("cluster: BreakerThreshold must be >= 0 (got %d)", c.BreakerThreshold))
	}
	if c.ReplayInterval < 0 {
		errs = append(errs, fmt.Errorf("cluster: ReplayInterval must be >= 0 (got %v)", c.ReplayInterval))
	}
	if c.HTTPTimeout < 0 {
		errs = append(errs, fmt.Errorf("cluster: HTTPTimeout must be >= 0 (got %v)", c.HTTPTimeout))
	}
	return errors.Join(errs...)
}

// withDefaults returns a copy with every unset knob defaulted.
func (c Config) withDefaults() Config {
	if c.Replication == 0 {
		c.Replication = DefaultReplication
		if c.Replication > len(c.Nodes) {
			c.Replication = len(c.Nodes)
		}
	}
	if c.Partitions == 0 {
		c.Partitions = DefaultPartitions
	}
	if c.TimeSlice == 0 {
		c.TimeSlice = DefaultTimeSlice
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.ReplayInterval == 0 {
		c.ReplayInterval = DefaultReplayInterval
	}
	if c.HTTPTimeout == 0 {
		c.HTTPTimeout = DefaultHTTPTimeout
	}
	if c.QueryCacheSize == 0 {
		c.QueryCacheSize = DefaultQueryCacheSize
	}
	return c
}
