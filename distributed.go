package activeiter

import (
	"errors"
	"io"

	"github.com/activeiter/activeiter/internal/distrib"
	"github.com/activeiter/activeiter/internal/partition"
)

// LabeledLink is one oracle-labeled pool link, as returned by
// PartitionedResult.QueriedLabels and consumed by a multi-round session.
type LabeledLink = partition.LabeledLink

// ShardTransport produces worker connections for distributed alignment.
// Use NewLoopbackTransport, NewWorkerProcessTransport or
// NewTCPTransport — or implement Dial for a custom fabric.
type ShardTransport = distrib.Transport

// DistributedMetrics is a distributed run's transport audit: bytes on
// the wire per shard and in total, oracle round-trips, retries.
type DistributedMetrics = distrib.Metrics

// NewLoopbackTransport serves every shard with an in-process worker
// goroutine speaking the full wire protocol — the zero-setup transport
// for tests and single-machine runs, and the serialization-overhead
// baseline for benchmarks.
func NewLoopbackTransport() ShardTransport { return distrib.Loopback{} }

// NewWorkerProcessTransport spawns one worker subprocess per connection
// and speaks the wire protocol over its stdio. The command must run the
// worker serve loop on stdin/stdout — `activeiter -worker` does.
func NewWorkerProcessTransport(cmd string, args ...string) ShardTransport {
	return &distrib.Exec{Cmd: cmd, Args: args}
}

// NewTCPTransport dials remote workers round-robin across addrs; each
// address should run `activeiter -worker-listen <addr>`.
func NewTCPTransport(addrs ...string) ShardTransport { return distrib.NewTCP(addrs...) }

// ServeWorker runs the distributed-alignment worker protocol over the
// given stream until it closes — the loop behind `activeiter -worker`.
func ServeWorker(conn io.ReadWriter) error { return distrib.Serve(conn) }

// ListenAndServeWorker accepts coordinator connections on addr and
// serves each until the listener fails — the loop behind
// `activeiter -worker-listen`.
func ListenAndServeWorker(addr string) error { return distrib.ListenAndServe(addr, nil) }

// DistributedAligner fans shard alignment out across processes: it
// plans candidate-space shards exactly like PartitionedAligner — it is
// the same type — but ships its warm anchor-free count cache once per
// worker process so jobs reduce to a few kilobytes of pool indices
// (workers fork the seeded counter instead of re-counting), answers the
// workers' oracle queries, and reconciles the returned vote streams
// into one globally one-to-one result.
//
// For the same Options (seed, partitions, budget, rounds) a distributed
// run produces the same alignment as an in-process one — the shipped
// counts are exact, the workers run the identical per-shard pipeline on
// forks of them, and the reconciliation is order-independent. The
// difference is where shards execute: forks in one process vs worker
// processes on any number of machines. Its methods are
// Align(trainPos, candidates, oracle), Panel() and Metrics(), the
// transport audit of the last Align call.
type DistributedAligner = shardedAligner

// NewDistributed builds a sharded aligner over the pair whose shards
// run on workers reached through transport. Shard count comes from
// Options.Partitions, worker-connection concurrency from
// Options.Workers.
func NewDistributed(pair *AlignedPair, opts Options, transport ShardTransport) (*DistributedAligner, error) {
	if transport == nil {
		return nil, errors.New("activeiter: nil shard transport")
	}
	return newSharded(pair, opts, transport)
}
