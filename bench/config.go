package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	activeiter "github.com/activeiter/activeiter"
	"github.com/activeiter/activeiter/internal/datagen"
)

// Protocol constants shared by every workload: the paper's 10-fold
// rotation with θ = 10 negatives per anchor, the 31 standard-library
// diagrams, and the ActiveIter-100 query budget in batches of 5.
const (
	folds       = 10
	negPerPos   = 10
	queryBudget = 100
	queryBatch  = 5
	shardK      = 4
	subRounds   = 3
	subWorkers  = 2
	fleetShards = 2
)

// preset sizes one benchmark configuration: the synthetic pair and
// the serve-side request rates.
type preset struct {
	name string
	data datagen.Config
	// readRate and churnRate are the open-loop request rates of
	// serve_read and fleet_churn, set near 30% of the closed-loop
	// capacity measured on the 2-core reference box.
	readRate, churnRate float64
}

// presets are the inputs the benchmark knows. The driver contract's
// cap (one run, set-up included, in about 20 s on two cores) rules out
// the issue's `mid` pair as the default — one cold count there is
// 3–4 s — so `default` keeps the crawl's ratios at a fifth of its
// linear scale and the op counts follow from --seconds. `mid` stays
// runnable by hand with a longer --seconds; `quick` is the smoke size
// and its numbers are never baselines.
func presets() map[string]preset {
	return map[string]preset{
		"default": {
			name: "default",
			data: datagen.Config{
				Users1: 1045, Users2: 1078, AnchorCount: 656,
				AvgFollows1: 31.6, AvgFollows2: 14.3,
				EdgeKeep1: 0.7, EdgeKeep2: 0.6, NoiseEdgeFrac: 0.2,
				PostsPerUser1: 10, PostsPerUser2: 6,
				Locations: 900, TimeBuckets: 96,
				Words: 800, WordsPerPost: 2,
				RoutineSize: 3, Dislocation: 0.35, ZipfS: 1.4,
				CommunityCombos: 80, CommunityShare: 0.5,
			},
			readRate: 1000, churnRate: 300,
		},
		"mid": {
			name: "mid",
			data: datagen.Config{
				Users1: 2600, Users2: 2700, AnchorCount: 1640,
				AvgFollows1: 31.6, AvgFollows2: 14.3,
				EdgeKeep1: 0.7, EdgeKeep2: 0.6, NoiseEdgeFrac: 0.2,
				PostsPerUser1: 10, PostsPerUser2: 6,
				Locations: 3000, TimeBuckets: 365,
				Words: 1500, WordsPerPost: 2,
				RoutineSize: 4, Dislocation: 0.35, ZipfS: 1.4,
				CommunityCombos: 300, CommunityShare: 0.3,
			},
			readRate: 3000, churnRate: 1000,
		},
		"quick": {
			name: "quick",
			data: datagen.Config{
				Users1: 300, Users2: 312, AnchorCount: 200,
				AvgFollows1: 9, AvgFollows2: 7,
				EdgeKeep1: 0.7, EdgeKeep2: 0.6, NoiseEdgeFrac: 0.2,
				PostsPerUser1: 6, PostsPerUser2: 5,
				Locations: 260, TimeBuckets: 96,
				RoutineSize: 3, Dislocation: 0.35, ZipfS: 1.5,
				CommunityCombos: 60, CommunityShare: 0.3,
			},
			readRate: 1000, churnRate: 500,
		},
	}
}

// dataset is the generated input of one run: the pair, the fold
// rotation over a seeded shuffle of its anchors, and the negative pool.
type dataset struct {
	pair      *activeiter.AlignedPair
	anchors   []activeiter.Anchor // seeded shuffle of pair.Anchors
	negatives []activeiter.Anchor
	oracle    activeiter.Oracle
	foldSize  int
}

// newDataset generates the pair and the evaluation protocol from the
// seed alone: equal seeds give equal inputs.
func newDataset(p preset, seed int64) (*dataset, error) {
	cfg := p.data
	cfg.Seed = seed
	pair, err := datagen.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate %s pair: %w", p.name, err)
	}
	// Network.Adjacency fills an unsynchronised per-network cache on
	// first use, and a fresh counter's parallel Recompute calls it from
	// several goroutines at once: on more than one core the first count
	// over a new pair can die with "concurrent map writes" (this
	// benchmark found it, one run in about twenty; the fix is a program
	// change and so a later issue's). Filling the caches here, on one
	// goroutine, keeps every op on the read-only path.
	for _, g := range []*activeiter.Network{pair.G1, pair.G2} {
		for _, lt := range g.LinkTypes() {
			if _, err := g.Adjacency(lt); err != nil {
				return nil, fmt.Errorf("adjacency %s/%s: %w", g.Name(), lt, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	anchors := append([]activeiter.Anchor(nil), pair.Anchors...)
	rng.Shuffle(len(anchors), func(i, j int) { anchors[i], anchors[j] = anchors[j], anchors[i] })
	neg, err := activeiter.SampleNegatives(pair, negPerPos*len(anchors), rng)
	if err != nil {
		return nil, fmt.Errorf("sample negatives: %w", err)
	}
	if len(anchors) < folds {
		return nil, fmt.Errorf("%d anchors cannot fill %d folds", len(anchors), folds)
	}
	return &dataset{
		pair:      pair,
		anchors:   anchors,
		negatives: neg,
		oracle:    activeiter.NewTruthOracle(pair),
		foldSize:  len(anchors) / folds,
	}, nil
}

// fold returns fold f's labelled anchors, its candidate pool (every
// other anchor plus all negatives) and the held-out positives the pool
// hides — the F1 reference.
func (d *dataset) fold(f int) (train, candidates, testPos []activeiter.Anchor) {
	f %= folds
	lo, hi := f*d.foldSize, (f+1)*d.foldSize
	train = d.anchors[lo:hi]
	testPos = make([]activeiter.Anchor, 0, len(d.anchors)-d.foldSize)
	testPos = append(testPos, d.anchors[:lo]...)
	testPos = append(testPos, d.anchors[hi:]...)
	candidates = make([]activeiter.Anchor, 0, len(testPos)+len(d.negatives))
	candidates = append(candidates, testPos...)
	candidates = append(candidates, d.negatives...)
	return train, candidates, testPos
}

// trainOptions are the facade options every label→model op trains
// with; the sharded workloads add their own partitioning on top.
func trainOptions(seed int64) activeiter.Options {
	return activeiter.Options{
		Budget:    queryBudget,
		BatchSize: queryBatch,
		Strategy:  activeiter.StrategyConflict,
		Seed:      seed,
	}
}

// anchorHash fingerprints a predicted-anchor set independent of order,
// so "same fold ⇒ same anchors" is one string compare across ops,
// processes and sets.
func anchorHash(anchors []activeiter.Anchor) string {
	s := append([]activeiter.Anchor(nil), anchors...)
	sort.Slice(s, func(a, b int) bool {
		if s[a].I != s[b].I {
			return s[a].I < s[b].I
		}
		return s[a].J < s[b].J
	})
	h := fnv.New64a()
	for _, a := range s {
		fmt.Fprintf(h, "%d:%d,", a.I, a.J)
	}
	return fmt.Sprintf("%d/%016x", len(s), h.Sum64())
}
