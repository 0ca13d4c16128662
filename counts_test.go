package activeiter

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/distrib"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// TestTrainPathsMaterializeNoBlock: the attribute counts are one-byte
// blocks, and no training path reads one through compressed arrays —
// not a monolithic Align, not a warm one on the same aligner, not K = 4
// in-process shards, not loopback workers, and not subprocess workers,
// which install the seed from the wire body: loopback workers share
// this process's seed cache and never decode one. At tiny P5 and P6 are
// blocks; at small Ψ^a², the shard planner's prior, is one too.
func TestTrainPathsMaterializeNoBlock(t *testing.T) {
	blocks := telemetry.Default.Counter("activeiter_sparse_block_products_total", "")
	materialised := telemetry.Default.Counter("activeiter_sparse_block_materializations_total", "")
	for name, cfg := range map[string]GeneratorConfig{"tiny": TinyDataset(), "small": SmallDataset()} {
		if name == "small" && testing.Short() {
			continue
		}
		pair, err := GenerateDataset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := len(pair.Anchors) / 4
		trainPos, testPos := pair.Anchors[:n], pair.Anchors[n:]
		neg, err := SampleNegatives(pair, 10*len(pair.Anchors), rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		cands := append(append([]Anchor{}, testPos...), neg...)
		b0, m0 := blocks.Value(), materialised.Value()
		align := func(path string, opts Options, tr ShardTransport, folds int) {
			t.Helper()
			sa, err := newSharded(pair, opts, tr)
			if err != nil {
				t.Fatal(err)
			}
			// Every fold after the first runs warm: the shared count layer
			// is already there.
			for f := 0; f < folds; f++ {
				if _, err := sa.Align(trainPos[f*n/folds:], cands, NewTruthOracle(pair)); err != nil {
					t.Fatalf("%s, %s fold %d: %v", name, path, f, err)
				}
			}
			if got := materialised.Value() - m0; got != 0 {
				t.Fatalf("%s, %s: %d blocks materialised", name, path, got)
			}
		}
		align("monolithic, cold then warm", Options{Seed: 1, Budget: 10}, nil, 2)
		align("K = 4 in-process", Options{Seed: 1, Budget: 10, Partitions: 4}, nil, 1)
		align("K = 4 loopback", Options{Seed: 1, Budget: 10, Partitions: 4, Workers: 2}, NewLoopbackTransport(), 1)
		if exe, err := os.Executable(); err == nil && !testing.Short() {
			// This test binary re-executed as a worker (TestMain) reports
			// its own counters when its connection ends.
			dir := t.TempDir()
			env := append(os.Environ(), workerEnv+"=1", workerMetricsEnv+"="+dir)
			align("K = 4 subprocess", Options{Seed: 1, Budget: 10, Partitions: 4, Workers: 2}, &distrib.Exec{Cmd: exe, Env: env, Stderr: os.Stderr}, 1)
			files, _ := filepath.Glob(filepath.Join(dir, "*.prom"))
			installed := 0
			for _, f := range files {
				prom, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if got := promValue(prom, "activeiter_sparse_block_materializations_total"); got != 0 {
					t.Fatalf("%s, subprocess worker %s: %v blocks materialised", name, filepath.Base(f), got)
				}
				// A worker counts nothing itself: its blocks are the seed's.
				if promValue(prom, `activeiter_metadiag_count_bytes{layout="block"}`) > 0 {
					installed++
				}
			}
			if len(files) == 0 || installed < len(files) {
				t.Fatalf("%s: %d of %d subprocess workers installed seed counts as blocks", name, installed, len(files))
			}
		}
		if blocks.Value() == b0 {
			t.Fatalf("%s: no count became a block, so the test checks nothing", name)
		}
	}
}

// promValue reads one series' value out of Prometheus text, the series
// named as it is rendered, labels included; 0 when it is absent.
func promValue(prom []byte, series string) float64 {
	for _, line := range strings.Split(string(prom), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}
