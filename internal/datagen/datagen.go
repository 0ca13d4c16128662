// Package datagen synthesizes aligned attributed heterogeneous social
// network pairs with the statistical structure the paper's experiments
// rely on. It substitutes for the proprietary Foursquare–Twitter crawl
// of Table II (see docs/EXPERIMENTS.md §Dataset for the substitution
// rationale).
//
// The generative model:
//
//   - A latent population hosts every user; the first AnchorCount users
//     exist in both networks (the ground-truth anchors), the rest in one.
//   - A latent directed social graph is grown by preferential attachment
//     (heavy-tailed in-degree, like real follow graphs). Each network
//     keeps a latent edge with probability EdgeKeep1/EdgeKeep2 and adds
//     its own noise edges, so anchored users have correlated — not
//     identical — neighborhoods across networks.
//   - Every user has a routine: a small set of (location, timestamp)
//     combos, mostly personal (uniform draws) with a CommunityShare
//     fraction taken from a shared community pool. Posts sample a combo
//     jointly with probability 1−Dislocation, and otherwise sample
//     location and timestamp independently from Zipf popularity
//     distributions. Anchored users share one routine across both
//     networks — the joint-attribute signal the meta diagram Ψ^a²
//     detects. Popular venues and peak hours give non-aligned pairs
//     marginal-only co-occurrence (the "dislocation" confound of
//     Section III-B-2 that defeats plain meta paths), and community
//     combos give some non-aligned pairs genuine joint overlap — the
//     hard negatives that make the one-to-one constraint and the active
//     query strategy matter.
//
// Everything is driven by a single seed: identical configs generate
// identical pairs.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// Config parameterizes the generator. The zero value is invalid; start
// from a preset.
type Config struct {
	Seed int64

	// Users1 and Users2 are the observed user counts; AnchorCount of
	// them are shared (AnchorCount ≤ min(Users1, Users2)).
	Users1, Users2, AnchorCount int

	// AvgFollows1 and AvgFollows2 are mean follow out-degrees.
	AvgFollows1, AvgFollows2 float64
	// EdgeKeep1 and EdgeKeep2 are the probabilities that a latent edge
	// appears in each network; lower values decorrelate the networks.
	EdgeKeep1, EdgeKeep2 float64
	// NoiseEdgeFrac adds this fraction of per-network random edges on
	// top of the kept latent edges.
	NoiseEdgeFrac float64

	// PostsPerUser1 and PostsPerUser2 are mean post counts (Poisson).
	PostsPerUser1, PostsPerUser2 float64

	// Locations and TimeBuckets size the shared attribute vocabularies.
	Locations, TimeBuckets int
	// Words sizes the optional word vocabulary; 0 disables word
	// generation. WordsPerPost is the mean word count per post.
	Words        int
	WordsPerPost float64

	// RoutineSize is how many (location, timestamp) combos make up a
	// user's routine.
	RoutineSize int
	// Dislocation is the probability that a post ignores the routine and
	// draws location and timestamp independently from the global
	// popularity distributions (the meta-path confound).
	Dislocation float64
	// CommunityCombos sizes a shared pool of (location, timestamp)
	// combos; CommunityShare is the probability that a routine entry is
	// drawn from the pool instead of being personal. Community combos
	// give *non-aligned* users joint attribute overlap — the hard
	// negatives that force alignment models to resolve conflicts rather
	// than threshold a clean score. Zero disables the pool.
	CommunityCombos int
	CommunityShare  float64

	// ZipfS is the Zipf exponent (>1) for attribute popularity.
	ZipfS float64
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	switch {
	case c.Users1 < 1 || c.Users2 < 1:
		return fmt.Errorf("datagen: need at least one user per network, got %d/%d", c.Users1, c.Users2)
	case c.AnchorCount < 0 || c.AnchorCount > c.Users1 || c.AnchorCount > c.Users2:
		return fmt.Errorf("datagen: anchor count %d outside [0, min(%d,%d)]", c.AnchorCount, c.Users1, c.Users2)
	case c.AvgFollows1 < 0 || c.AvgFollows2 < 0:
		return fmt.Errorf("datagen: negative follow degree")
	case c.EdgeKeep1 <= 0 || c.EdgeKeep1 > 1 || c.EdgeKeep2 <= 0 || c.EdgeKeep2 > 1:
		return fmt.Errorf("datagen: edge keep probabilities must be in (0,1]")
	case c.NoiseEdgeFrac < 0:
		return fmt.Errorf("datagen: negative noise edge fraction")
	case c.PostsPerUser1 < 0 || c.PostsPerUser2 < 0:
		return fmt.Errorf("datagen: negative posts per user")
	case c.Locations < 1 || c.TimeBuckets < 1:
		return fmt.Errorf("datagen: need non-empty attribute vocabularies")
	case c.Words < 0 || c.WordsPerPost < 0:
		return fmt.Errorf("datagen: negative word settings")
	case c.RoutineSize < 1:
		return fmt.Errorf("datagen: routine size must be ≥ 1")
	case c.Dislocation < 0 || c.Dislocation > 1:
		return fmt.Errorf("datagen: dislocation %v outside [0,1]", c.Dislocation)
	case c.CommunityCombos < 0:
		return fmt.Errorf("datagen: negative community combo pool")
	case c.CommunityShare < 0 || c.CommunityShare > 1:
		return fmt.Errorf("datagen: community share %v outside [0,1]", c.CommunityShare)
	case c.CommunityShare > 0 && c.CommunityCombos == 0:
		return fmt.Errorf("datagen: community share %v needs a non-empty combo pool", c.CommunityShare)
	case c.ZipfS <= 1:
		return fmt.Errorf("datagen: Zipf exponent must exceed 1, got %v", c.ZipfS)
	}
	return nil
}

// Preset resolves a preset by the name the commands accept.
func Preset(name string) (Config, error) {
	switch name {
	case "tiny":
		return Tiny(), nil
	case "small":
		return Small(), nil
	case "paper":
		return PaperShape(), nil
	case "full":
		return FullScale(), nil
	case "xl":
		return XLScale(), nil
	default:
		return Config{}, fmt.Errorf("unknown preset %q (want tiny, small, paper, full or xl)", name)
	}
}

// Tiny returns a preset small enough for unit tests (runs in
// milliseconds).
func Tiny() Config {
	return Config{
		Seed: 1, Users1: 60, Users2: 64, AnchorCount: 40,
		AvgFollows1: 6, AvgFollows2: 5,
		EdgeKeep1: 0.75, EdgeKeep2: 0.65, NoiseEdgeFrac: 0.15,
		PostsPerUser1: 4, PostsPerUser2: 3,
		Locations: 60, TimeBuckets: 40,
		Words: 0, WordsPerPost: 0,
		RoutineSize: 3, Dislocation: 0.3, ZipfS: 1.6,
		CommunityCombos: 15, CommunityShare: 0.25,
	}
}

// Small returns the default experiment preset: large enough for the
// paper's relative effects to be visible, small enough for full sweeps
// in seconds.
func Small() Config {
	return Config{
		Seed: 7, Users1: 300, Users2: 312, AnchorCount: 200,
		AvgFollows1: 9, AvgFollows2: 7,
		EdgeKeep1: 0.7, EdgeKeep2: 0.6, NoiseEdgeFrac: 0.2,
		PostsPerUser1: 6, PostsPerUser2: 5,
		Locations: 260, TimeBuckets: 96,
		Words: 0, WordsPerPost: 0,
		RoutineSize: 3, Dislocation: 0.35, ZipfS: 1.5,
		CommunityCombos: 60, CommunityShare: 0.3,
	}
}

// PaperShape mirrors Table II's ratios at roughly 1/5 linear scale:
// user counts, follow densities and the anchor fraction track the
// crawl; posts per user are capped for tractability (Twitter's 1,800
// tweets/user average is I/O volume, not signal).
func PaperShape() Config {
	return Config{
		Seed: 2019, Users1: 1045, Users2: 1078, AnchorCount: 656,
		AvgFollows1: 31.6, AvgFollows2: 14.3,
		EdgeKeep1: 0.7, EdgeKeep2: 0.6, NoiseEdgeFrac: 0.2,
		PostsPerUser1: 6, PostsPerUser2: 5,
		Locations: 900, TimeBuckets: 96,
		Words: 800, WordsPerPost: 2,
		RoutineSize: 3, Dislocation: 0.35, ZipfS: 1.4,
		CommunityCombos: 80, CommunityShare: 0.5,
	}
}

// FullScale reproduces Table II's user and link magnitudes (posts per
// user capped at 20; see docs/EXPERIMENTS.md §Dataset). Generation takes
// tens of seconds and a few GB of memory.
func FullScale() Config {
	return Config{
		Seed: 2019, Users1: 5223, Users2: 5392, AnchorCount: 3282,
		AvgFollows1: 31.6, AvgFollows2: 14.3,
		EdgeKeep1: 0.7, EdgeKeep2: 0.6, NoiseEdgeFrac: 0.2,
		PostsPerUser1: 20, PostsPerUser2: 9,
		Locations: 8000, TimeBuckets: 730,
		Words: 3000, WordsPerPost: 2,
		RoutineSize: 4, Dislocation: 0.35, ZipfS: 1.4,
		CommunityCombos: 800, CommunityShare: 0.3,
	}
}

// XLScale is ~10× FullScale in users, follow links, and anchors — the
// partitioned-alignment stress preset, far past what one monolithic
// training loop handles comfortably. The attribute side is deliberately
// de-skewed relative to the crawl presets: with Zipf-popular venues the
// head venue is visited by a constant fraction of users, so its
// cross-network co-occurrence block grows quadratically with the user
// count — crawl-level skew at 10× the users means hundred-GB count
// matrices before the first training iteration. Flattening the
// popularity head (ZipfS 1.05, Dislocation 0.2) and oversizing the
// vocabularies keeps attribute evidence per user pair at a realistic
// level while bounding count-matrix density — the same tractability
// argument docs/EXPERIMENTS.md §Dataset makes for capping post volume.
// This preset measures scale, not the dislocation confound (the
// crawl-shaped presets keep that). Words are disabled (the evaluation
// never uses them). Generation takes minutes; counting the standard
// library over the pair takes tens of GB.
func XLScale() Config {
	return Config{
		Seed: 2019, Users1: 52230, Users2: 53920, AnchorCount: 32820,
		AvgFollows1: 31.6, AvgFollows2: 14.3,
		EdgeKeep1: 0.7, EdgeKeep2: 0.6, NoiseEdgeFrac: 0.2,
		PostsPerUser1: 12, PostsPerUser2: 6,
		Locations: 200000, TimeBuckets: 20000,
		Words: 0, WordsPerPost: 0,
		RoutineSize: 4, Dislocation: 0.2, ZipfS: 1.05,
		CommunityCombos: 8000, CommunityShare: 0.3,
	}
}

// combo is one (location, timestamp) routine entry.
type combo struct {
	loc, ts int
}

// Generate synthesizes an aligned pair from the configuration.
func Generate(cfg Config) (*hetnet.AlignedPair, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Latent population: [0, AnchorCount) shared, then net1-only, then
	// net2-only.
	only1 := cfg.Users1 - cfg.AnchorCount
	only2 := cfg.Users2 - cfg.AnchorCount
	latentN := cfg.AnchorCount + only1 + only2

	// membership[u] & 1 → in net1; & 2 → in net2.
	membership := make([]byte, latentN)
	for u := 0; u < latentN; u++ {
		switch {
		case u < cfg.AnchorCount:
			membership[u] = 3
		case u < cfg.AnchorCount+only1:
			membership[u] = 1
		default:
			membership[u] = 2
		}
	}

	// Latent social graph by preferential attachment. The latent mean
	// out-degree is inflated so each network reaches its target after
	// subsampling by EdgeKeep.
	latentDeg := cfg.AvgFollows1 / cfg.EdgeKeep1
	if d2 := cfg.AvgFollows2 / cfg.EdgeKeep2; d2 > latentDeg {
		latentDeg = d2
	}
	latent := growLatentGraph(rng, latentN, latentDeg)

	// Attribute popularity and per-user routines. Routine combos are
	// drawn uniformly — a routine is personal, not popular — while the
	// dislocated noise below draws from Zipf popularity. Aligned users
	// therefore share distinctive joint (location, timestamp) combos,
	// and unrelated users co-occur mostly through popular venues and
	// peak hours: the paper's dislocation confound.
	locZipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Locations-1))
	tsZipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.TimeBuckets-1))
	communityPool := make([]combo, cfg.CommunityCombos)
	for k := range communityPool {
		communityPool[k] = combo{loc: rng.Intn(cfg.Locations), ts: rng.Intn(cfg.TimeBuckets)}
	}
	routines := make([][]combo, latentN)
	for u := range routines {
		r := make([]combo, cfg.RoutineSize)
		for k := range r {
			if len(communityPool) > 0 && rng.Float64() < cfg.CommunityShare {
				r[k] = communityPool[rng.Intn(len(communityPool))]
			} else {
				r[k] = combo{loc: rng.Intn(cfg.Locations), ts: rng.Intn(cfg.TimeBuckets)}
			}
		}
		routines[u] = r
	}

	var wordZipf *rand.Zipf
	if cfg.Words > 0 {
		wordZipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Words-1))
	}

	g1 := hetnet.NewSocialNetwork("net1")
	g2 := hetnet.NewSocialNetwork("net2")

	// User index assignment per network, in latent order: anchored users
	// get the same relative order in both networks, which keeps anchor
	// bookkeeping trivial without leaking identity (IDs differ).
	idx1 := make([]int, latentN)
	idx2 := make([]int, latentN)
	for u := 0; u < latentN; u++ {
		idx1[u], idx2[u] = -1, -1
		if membership[u]&1 != 0 {
			idx1[u] = g1.AddNode(hetnet.User, fmt.Sprintf("t_user_%d", u))
		}
		if membership[u]&2 != 0 {
			idx2[u] = g2.AddNode(hetnet.User, fmt.Sprintf("f_user_%d", u))
		}
	}

	if err := emitFollows(rng, g1, latent, membership, idx1, 1, cfg.EdgeKeep1, cfg.NoiseEdgeFrac); err != nil {
		return nil, err
	}
	if err := emitFollows(rng, g2, latent, membership, idx2, 2, cfg.EdgeKeep2, cfg.NoiseEdgeFrac); err != nil {
		return nil, err
	}

	emit := func(g *hetnet.Network, prefix string, u, userIdx int, meanPosts float64) error {
		n := poisson(rng, meanPosts)
		for p := 0; p < n; p++ {
			postIdx := g.AddNode(hetnet.Post, fmt.Sprintf("%s_post_%d_%d", prefix, u, p))
			if err := g.AddLink(hetnet.Write, userIdx, postIdx); err != nil {
				return err
			}
			var loc, ts int
			if rng.Float64() < cfg.Dislocation {
				loc = int(locZipf.Uint64())
				ts = int(tsZipf.Uint64())
			} else {
				cb := routines[u][rng.Intn(len(routines[u]))]
				loc, ts = cb.loc, cb.ts
			}
			locIdx := g.AddNode(hetnet.Location, fmt.Sprintf("L%d", loc))
			if err := g.AddLink(hetnet.Checkin, postIdx, locIdx); err != nil {
				return err
			}
			tsIdx := g.AddNode(hetnet.Timestamp, fmt.Sprintf("T%d", ts))
			if err := g.AddLink(hetnet.At, postIdx, tsIdx); err != nil {
				return err
			}
			if wordZipf != nil {
				for w := poisson(rng, cfg.WordsPerPost); w > 0; w-- {
					wIdx := g.AddNode(hetnet.Word, fmt.Sprintf("W%d", wordZipf.Uint64()))
					if err := g.AddLink(hetnet.Contains, postIdx, wIdx); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	for u := 0; u < latentN; u++ {
		if idx1[u] >= 0 {
			if err := emit(g1, "t", u, idx1[u], cfg.PostsPerUser1); err != nil {
				return nil, err
			}
		}
		if idx2[u] >= 0 {
			if err := emit(g2, "f", u, idx2[u], cfg.PostsPerUser2); err != nil {
				return nil, err
			}
		}
	}

	pair := hetnet.NewAlignedPair(g1, g2)
	for u := 0; u < cfg.AnchorCount; u++ {
		if err := pair.AddAnchor(idx1[u], idx2[u]); err != nil {
			return nil, err
		}
	}
	if err := pair.Validate(); err != nil {
		return nil, fmt.Errorf("datagen: generated pair invalid: %w", err)
	}
	return pair, nil
}

// latentEdge is a directed latent follow edge.
type latentEdge struct {
	from, to int
}

// growLatentGraph grows a directed preferential-attachment graph: each
// user emits Poisson(meanDeg) follows whose targets are drawn
// proportionally to in-degree+1 (the repeated-endpoint-list trick),
// giving heavy-tailed popularity.
func growLatentGraph(rng *rand.Rand, n int, meanDeg float64) []latentEdge {
	var edges []latentEdge
	// Target pool: every node once (the +1 smoothing), plus one entry per
	// received edge.
	pool := make([]int, 0, n*4)
	for u := 0; u < n; u++ {
		pool = append(pool, u)
	}
	seen := make(map[[2]int]bool)
	for u := 0; u < n; u++ {
		k := poisson(rng, meanDeg)
		for e := 0; e < k; e++ {
			v := pool[rng.Intn(len(pool))]
			if v == u || seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			edges = append(edges, latentEdge{from: u, to: v})
			pool = append(pool, v)
		}
	}
	return edges
}

// emitFollows projects the latent edges into one network and adds noise
// edges.
func emitFollows(rng *rand.Rand, g *hetnet.Network, latent []latentEdge, membership []byte, idx []int, netBit byte, keep, noiseFrac float64) error {
	kept := 0
	for _, e := range latent {
		if membership[e.from]&netBit == 0 || membership[e.to]&netBit == 0 {
			continue
		}
		if rng.Float64() >= keep {
			continue
		}
		if err := g.AddLink(hetnet.Follow, idx[e.from], idx[e.to]); err != nil {
			return err
		}
		kept++
	}
	users := g.NodeCount(hetnet.User)
	if users < 2 {
		return nil
	}
	for e := int(float64(kept) * noiseFrac); e > 0; e-- {
		a, b := rng.Intn(users), rng.Intn(users)
		if a == b {
			continue
		}
		if err := g.AddLink(hetnet.Follow, a, b); err != nil {
			return err
		}
	}
	return nil
}

// poisson samples a Poisson variate by Knuth's method, adequate for the
// small means used here.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// For large means, fall back to a normal approximation to avoid the
	// O(mean) loop cost dominating generation.
	if mean > 50 {
		v := int(mean + rng.NormFloat64()*math.Sqrt(mean) + 0.5)
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
