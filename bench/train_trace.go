package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	activeiter "github.com/activeiter/activeiter"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/distrib"
	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/matching"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/multinet"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// tracedOps is how many ops a traced run replays stage by stage.
const tracedOps = 3

// replayOut is what one stage replay produced besides its spans.
type replayOut struct {
	predicted []activeiter.Anchor
	// Kept for the micro-probes that want the op's real operands.
	counter *metadiag.Counter
	links   []activeiter.Anchor
	x       *linalg.Dense
	res     *core.Result
	plan    *partition.Plan
	base    *metadiag.Counter
	wire    *distrib.Metrics
}

// features is the 31-diagram standard library every workload extracts.
func features() []schema.Named { return schema.StandardLibrary().All() }

// coreConfig mirrors what the facades hand core.Train.
func coreConfig(seed int64) core.Config {
	strat, err := distrib.ResolveStrategy(distrib.StrategyConflict)
	if err != nil {
		panic(err) // the conflict strategy always resolves
	}
	return core.Config{Budget: queryBudget, BatchSize: queryBatch, Strategy: strat, Seed: seed}
}

// assemblePool is the facade's pool rule: labelled anchors first, then
// the candidates not already present, in order.
func assemblePool(train, cands []activeiter.Anchor) []activeiter.Anchor {
	links := make([]activeiter.Anchor, 0, len(train)+len(cands))
	links = append(links, train...)
	seen := make(map[int64]bool, cap(links))
	for _, l := range train {
		seen[hetnet.Key(l.I, l.J)] = true
	}
	for _, l := range cands {
		if k := hetnet.Key(l.I, l.J); !seen[k] {
			seen[k] = true
			links = append(links, l)
		}
	}
	return links
}

func positives(links []activeiter.Anchor, res *core.Result) []activeiter.Anchor {
	var out []activeiter.Anchor
	for i, l := range links {
		if res.Y[i] == 1 {
			out = append(out, l)
		}
	}
	return out
}

// replayMono replays Aligner.New + Align (or, given a long-lived
// counter and extractor, a warm Align) through the layers' public
// functions, one span per stage under root.
func (fx *trainFixture) replayMono(e *env, root uint64, f int, counter *metadiag.Counter, ext *metadiag.Extractor) (*replayOut, error) {
	train, cands, _ := fx.data.fold(f)
	out := &replayOut{}
	var err error
	if counter == nil {
		e.tr.span("metadiag.new_counter", root, func(uint64) {
			counter, err = metadiag.NewCounter(fx.data.pair)
		})
		if err != nil {
			return nil, err
		}
		ext = metadiag.NewExtractor(counter, features(), true)
	}
	e.tr.span("metadiag.count", root, func(uint64) {
		counter.SetAnchors(train)
		err = ext.Recompute()
	})
	if err != nil {
		return nil, err
	}
	e.tr.span("bench.pool", root, func(uint64) { out.links = assemblePool(train, cands) })
	e.tr.span("metadiag.feature_matrix", root, func(uint64) { out.x, err = ext.FeatureMatrix(out.links) })
	if err != nil {
		return nil, err
	}
	labeled := make([]int, len(train))
	for i := range labeled {
		labeled[i] = i
	}
	e.tr.span("core.train", root, func(uint64) {
		out.res, err = core.Train(core.Problem{Links: out.links, X: out.x, LabeledPos: labeled, Oracle: fx.data.oracle},
			coreConfig(fx.opts.Seed))
	})
	if err != nil {
		return nil, err
	}
	out.counter = counter
	out.predicted = positives(out.links, out.res)
	return out, nil
}

// trainOpts mirrors the facades' partition.TrainOptions.
func (fx *trainFixture) trainOpts() partition.TrainOptions {
	return partition.TrainOptions{Features: features(), Workers: fx.opts.Workers, Core: coreConfig(fx.opts.Seed)}
}

// replayPlan replays the planning half the two sharded facades share.
func (fx *trainFixture) replayPlan(e *env, root uint64, f int) (*replayOut, error) {
	train, cands, _ := fx.data.fold(f)
	out := &replayOut{}
	var err error
	e.tr.span("metadiag.new_counter", root, func(uint64) { out.base, err = metadiag.NewCounter(fx.data.pair) })
	if err != nil {
		return nil, err
	}
	var planner *partition.Planner
	e.tr.span("partition.new_planner", root, func(uint64) { planner, err = partition.NewPlanner(out.base) })
	if err != nil {
		return nil, err
	}
	e.tr.span("partition.plan", root, func(uint64) {
		out.plan, err = planner.Plan(train, cands, queryBudget, partition.Config{K: shardK})
	})
	return out, err
}

// replayInproc replays PartitionedAligner: plan, then the concurrent
// part pipelines and the merge as one partition.Align stage.
func (fx *trainFixture) replayInproc(e *env, root uint64, f int) (*replayOut, error) {
	out, err := fx.replayPlan(e, root, f)
	if err != nil {
		return nil, err
	}
	var res *partition.Result
	e.tr.span("partition.align", root, func(uint64) {
		res, err = partition.Align(out.base, out.plan, fx.trainOpts(), fx.data.oracle)
	})
	if err != nil {
		return nil, err
	}
	out.predicted = res.PredictedAnchors()
	return out, nil
}

// distribOptions mirrors the distributed facade's coordinator options.
func (fx *trainFixture) distribOptions(base *metadiag.Counter) distrib.Options {
	return distrib.Options{
		Train: distrib.TrainConfig{
			FeatureSet: distrib.FeaturesFull, Strategy: distrib.StrategyConflict,
			BatchSize: queryBatch, Seed: fx.opts.Seed,
		},
		Workers: fx.opts.Workers,
		Base:    base,
	}
}

// replaySubproc replays DistributedAligner with Rounds > 1: plan, then
// one sticky session whose rounds are timed one by one.
func (fx *trainFixture) replaySubproc(e *env, root uint64, f int, transport distrib.Transport) (*replayOut, error) {
	out, err := fx.replayPlan(e, root, f)
	if err != nil {
		return nil, err
	}
	sess, err := distrib.NewSession(transport, fx.data.pair, fx.distribOptions(out.base))
	if err != nil {
		return nil, err
	}
	var res *partition.Result
	for r := 0; r < subRounds && err == nil; r++ {
		out.plan.Rebudget(partition.RoundBudget(queryBudget, subRounds, r))
		e.tr.span(fmt.Sprintf("distrib.round%d", r+1), root, func(uint64) {
			res, _, err = sess.Run(out.plan, fx.data.oracle)
		})
		if err == nil && r < subRounds-1 {
			e.tr.span("partition.append_labels", root, func(uint64) { out.plan.AppendLabels(res.QueriedLabels()) })
		}
	}
	out.wire = sess.Metrics()
	e.tr.span("distrib.close", root, func(uint64) {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return nil, err
	}
	out.predicted = res.PredictedAnchors()
	return out, nil
}

// probe is the traced half of a label→model run: facade ops under
// a root span, the same folds replayed stage by stage, the two
// reconciled, then the micro-probes of every layer on the workload's
// path, on the op's real operands.
func (fx *trainFixture) probe(ctx context.Context, e *env, d *runDetail) error {
	name, pl := fx.name, d.PerLayer
	for k, v := range d.Extra {
		pl[k] = v
	}

	// Facade ops inside a span, against the untraced phase's median: what
	// tracing costs the op itself (the spans are the benchmark's, outside
	// the program, so this reads 1 ± noise until spans move inside).
	untraced := d.Extra["align_p50_s"].Value
	var traced []float64
	for f := 0; f < tracedOps; f++ {
		e.tr.span("bench.facade_op", 0, func(uint64) {
			s, _, err := fx.timedOp(f, d)
			if err != nil {
				d.violate("traced facade op on fold %d: %v", f, err)
			}
			traced = append(traced, s.wallS)
		})
	}
	pl.set("telemetry.trace_overhead_ratio", median(traced)/untraced, "ratio")

	// Stage replays of the same folds.
	var warmCounter *metadiag.Counter
	var warmExt *metadiag.Extractor
	if name == "fold_warm" {
		var err error
		if warmCounter, err = metadiag.NewCounter(fx.data.pair); err != nil {
			return err
		}
		warmExt = metadiag.NewExtractor(warmCounter, features(), true)
		warmCounter.SetAnchors(fx.data.anchors[:1])
		if err := warmExt.Recompute(); err != nil { // fills the attribute-only layer, as the warm-up op does
			return err
		}
	}
	var transport distrib.Transport
	if name == "shard_subproc" {
		transport = &distrib.Exec{Cmd: fx.workerBin, Args: []string{"-worker"}}
	}
	var last *replayOut
	var roots []uint64
	var workerRSS float64
	for f := 0; f < tracedOps; f++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.GC()
		stopSampler := func() {}
		if name == "shard_subproc" {
			stopSampler = sampleWorkerRSS(&workerRSS)
		}
		var out *replayOut
		var err error
		e.tr.span("bench.replay", 0, func(root uint64) {
			roots = append(roots, root)
			switch name {
			case "mono_cold":
				out, err = fx.replayMono(e, root, f, nil, nil)
			case "fold_warm":
				out, err = fx.replayMono(e, root, f, warmCounter, warmExt)
			case "shard_inproc":
				out, err = fx.replayInproc(e, root, f)
			case "shard_subproc":
				out, err = fx.replaySubproc(e, root, f, transport)
			}
		})
		stopSampler()
		if err != nil {
			return fmt.Errorf("replay fold %d: %w", f, err)
		}
		if got, want := anchorHash(out.predicted), d.FoldAnchors[fmt.Sprint(f)]; got != want {
			d.violate("fold %d: the stage replay predicts %s, the facade op %s", f, got, want)
		}
		last = out
	}
	stage := reconcile(e.tr.t.Spans(), roots, d)
	replayS := stage["bench.replay"]
	pl.set("bench.replay_ratio", replayS/untraced, "ratio")

	pl.set("datagen.generate_s", timeIt(func() { _, _ = newDataset(e.preset, e.opts.seed) }), "s")
	pl.set("metadiag.feature_matrix_s", stage["metadiag.feature_matrix"], "s")
	pl.set("core.train_s", stage["core.train"], "s")
	pl.set("partition.new_planner_s", stage["partition.new_planner"], "s")
	pl.set("partition.plan_s", stage["partition.plan"], "s")

	switch name {
	case "mono_cold":
		pl.set("metadiag.count_cold_s", stage["metadiag.count"], "s")
		if err := fx.probeColdCount(last, d); err != nil {
			return err
		}
		fx.probeSparse(last, pl)
		fx.probeCore(last, pl)
	case "fold_warm":
		pl.set("metadiag.count_warm_s", stage["metadiag.count"], "s")
		fx.probeCore(last, pl)
	case "shard_inproc":
		if err := fx.probeParts(last, pl); err != nil {
			return err
		}
	case "shard_subproc":
		w := last.wire
		pl.set("distrib.job_bytes", float64(w.JobBytes), "B")
		pl.set("distrib.seed_bytes", float64(w.SeedBytes), "B")
		pl.set("distrib.seed_ships", float64(w.SeedShips), "count")
		pl.set("distrib.delta_bytes", float64(w.DeltaBytes), "B")
		pl.set("distrib.result_bytes", float64(w.ResultBytes), "B")
		pl.set("distrib.cache_hits", float64(w.CacheHits), "count")
		pl.set("distrib.cache_misses", float64(w.CacheMisses), "count")
		pl.set("distrib.oracle_queries", float64(w.Queries), "count")
		pl.set("distrib.round1_s", stage["distrib.round1"], "s")
		pl.set("distrib.round_next_s", (stage["distrib.round2"]+stage["distrib.round3"])/2, "s")
		pl.set("distrib.worker_peak_rss_mb", workerRSS, "MB")
		if err := fx.probeDistrib(e, last, d); err != nil {
			return err
		}
	}
	if last.counter != nil {
		st := last.counter.Stats()
		pl.set("metadiag.evaluations", float64(st.Evaluations), "count")
		pl.set("metadiag.cache_hit_ratio", float64(st.CacheHits)/float64(max(st.CacheHits+st.Evaluations, 1)), "ratio")
		pl.set("metadiag.recompute_s", timeIt(func() {
			_ = metadiag.NewExtractor(last.counter, features(), true).Recompute() // every count is cached: proximity rebuild only
		}), "s")
		pl.set("metadiag.feature_rows_per_s", float64(len(last.links))/stage["metadiag.feature_matrix"], "1/s")
	}
	return nil
}

// timeIt returns fn's wall seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// allocOf returns fn's wall seconds and the heap bytes it allocated.
func allocOf(fn func()) (seconds, mb float64) {
	runtime.GC()
	a0 := heapAllocBytes()
	seconds = timeIt(fn)
	return seconds, (heapAllocBytes() - a0) / 1e6
}

// reconcile reduces the replay spans: the median duration per stage
// name, the per-layer self time per op, and the share of the replay op
// no stage explains (which must stay ≤ 0.15).
func reconcile(spans []telemetry.SpanData, roots []uint64, d *runDetail) map[string]float64 {
	isRoot := make(map[uint64]bool, len(roots))
	for _, r := range roots {
		isRoot[r] = true
	}
	byName := map[string][]float64{}
	self := selfTimes(spans)
	d.LayerSelfS = map[string]float64{}
	var rootS, childS float64
	for _, s := range spans {
		dur := float64(s.End-s.Start) / 1e9
		switch {
		case isRoot[s.ID]:
			rootS += dur
		case isRoot[s.Parent]:
			childS += dur
		default:
			continue // facade-op and probe spans are outside the replay tree
		}
		byName[s.Name] = append(byName[s.Name], dur)
		layer, _, _ := strings.Cut(s.Name, ".")
		d.LayerSelfS[layer] += float64(self[s.ID]) / 1e9 / float64(len(roots))
	}
	stage := make(map[string]float64, len(byName))
	for name, durs := range byName {
		stage[name] = median(durs)
	}
	unexplained := (rootS - childS) / rootS
	d.PerLayer.set("bench.unexplained_ratio", unexplained, "ratio")
	if unexplained > 0.15 {
		d.violate("stage spans leave %.1f%% of the replayed op unexplained (limit 15%%)", unexplained*100)
	}
	return stage
}

// probeColdCount times every notation of the library on its own fresh
// counter — the cold cost of each — and the allocation of one whole
// cold count.
func (fx *trainFixture) probeColdCount(last *replayOut, d *runDetail) error {
	train, _, _ := fx.data.fold(tracedOps - 1)
	worst := 0.0
	for _, ft := range features() {
		c, err := metadiag.NewCounter(fx.data.pair)
		if err != nil {
			return err
		}
		c.SetAnchors(train)
		nnz := 0
		s := timeIt(func() {
			m, cerr := c.Count(ft.D)
			if err = cerr; err == nil {
				nnz = m.NNZ()
			}
		})
		if err != nil {
			return fmt.Errorf("count %s: %w", ft.ID, err)
		}
		d.Notations = append(d.Notations, notationCost{ID: ft.ID, Seconds: s, NNZ: nnz})
		worst = max(worst, s)
	}
	d.PerLayer.set("metadiag.count_cold_max_s", worst, "s")

	c, err := metadiag.NewCounter(fx.data.pair)
	if err != nil {
		return err
	}
	c.SetAnchors(train)
	_, mb := allocOf(func() { err = metadiag.NewExtractor(c, features(), true).Recompute() })
	d.PerLayer.set("metadiag.count_alloc_mb", mb, "MB")
	return err
}

// probeSparse times the SpGEMM kernels on operands the counting
// pipeline really multiplies: the common-location count matrix against
// the follow graph, and the follow meta path P1's chain.
func (fx *trainFixture) probeSparse(last *replayOut, pl metrics) {
	pair := fx.data.pair
	train, _, _ := fx.data.fold(tracedOps - 1)
	left, err := last.counter.Count(schema.AttributePath(hetnet.Checkin))
	f1, err1 := pair.G1.Adjacency(hetnet.Follow)
	f2, err2 := pair.G2.Adjacency(hetnet.Follow)
	if err != nil || err1 != nil || err2 != nil {
		return // a pair without follow or check-in links has no operands to time
	}
	f2t := f2.T()
	serial, mb := allocOf(func() { sparse.MatMul(left, f2t) })
	parallel := timeIt(func() { sparse.MatMulParallel(left, f2t) })
	flops := telemetry.Default.Counter("activeiter_spgemm_flops_total", "")
	before := flops.Value()
	chain := timeIt(func() { sparse.Chain(f1, pair.AnchorMatrix(train), f2t) })
	done := float64(flops.Value() - before)
	pl.set("sparse.matmul_serial_s", serial, "s")
	pl.set("sparse.matmul_parallel_s", parallel, "s")
	pl.set("sparse.parallel_speedup", serial/parallel, "ratio")
	pl.set("sparse.matmul_alloc_mb", mb, "MB")
	pl.set("sparse.chain_s", chain, "s")
	pl.set("sparse.spgemm_flops", done, "count")
	pl.set("sparse.flops_per_s", done/chain, "1/s")
}

// probeCore times the ridge and matching kernels on the op's real
// design matrix and scores, and reads the training loop's counters.
func (fx *trainFixture) probeCore(last *replayOut, pl metrics) {
	var ridge *linalg.Ridge
	var err error
	pl.set("linalg.ridge_factor_s", timeIt(func() { ridge, err = linalg.NewRidge(last.x, 1) }), "s")
	if err != nil {
		return
	}
	pl.set("linalg.ridge_solve_s", timeIt(func() { ridge.Solve(last.x, last.res.Y) }), "s")
	cands := make([]matching.Candidate, len(last.links))
	for i, l := range last.links {
		cands[i] = matching.Candidate{I: l.I, J: l.J, Score: last.res.Scores[i], Payload: i}
	}
	pl.set("matching.greedy_s", timeIt(func() { matching.Greedy(cands, 0.5, matching.NewOccupied()) }), "s")
	pl.set("core.train_iters", float64(last.res.InternalIterations), "count")
	pl.set("core.queries", float64(last.res.QueryCount()), "count")
	labeled := make([]int, fx.data.foldSize)
	for i := range labeled {
		labeled[i] = i
	}
	_, mb := allocOf(func() {
		_, _ = core.Train(core.Problem{Links: last.links, X: last.x, LabeledPos: labeled, Oracle: fx.data.oracle},
			coreConfig(fx.opts.Seed))
	})
	pl.set("core.train_alloc_mb", mb, "MB")
}

// probeParts runs the plan's part pipelines one after another — what
// partition.Align overlaps — so their sum, their straggler and the
// parallel speed-up are visible, then times extraction, the vote merge
// and the reconciliation on the parts' real outputs.
func (fx *trainFixture) probeParts(last *replayOut, pl metrics) error {
	plan, opts := last.plan, fx.trainOpts()
	_, cands, _ := fx.data.fold(tracedOps - 1)
	pl.set("partition.overlap_ratio", float64(plan.Candidates())/float64(len(cands)), "ratio")

	var prep, train []float64 // per part: fork count + features, then training
	var votes [][]partition.Vote
	var fork float64
	for p := range plan.Parts {
		part := &plan.Parts[p]
		counter := last.base.Fork()
		counter.SetAnchors(part.TrainPos)
		var pp *partition.Prepared
		var err error
		// The first Recompute on a fresh fork is the anchor-layer recount;
		// PreparePart then finds every count cached.
		forkS := timeIt(func() { err = metadiag.NewExtractor(counter, opts.Features, true).Recompute() })
		if err != nil {
			return err
		}
		fork += forkS
		prep = append(prep, forkS+timeIt(func() { pp, err = partition.PreparePart(counter, part, opts.Features) }))
		if err != nil {
			return err
		}
		var res *core.Result
		train = append(train, timeIt(func() { res, err = pp.Train(part, opts.Core, fx.data.oracle) }))
		if err != nil {
			return err
		}
		votes = append(votes, partition.PartVotes(part, pp.Links, res))
	}
	pl.set("metadiag.count_fork_s", fork/float64(len(plan.Parts)), "s")
	pl.set("partition.prepare_part_sum_s", sum(prep), "s")
	pl.set("partition.prepare_part_max_s", percentile(prep, 100), "s")
	pl.set("partition.train_part_sum_s", sum(train), "s")

	align := timeIt(func() { _, _ = partition.Align(last.base, plan, opts, fx.data.oracle) })
	pl.set("partition.parallel_speedup", (sum(prep)+sum(train))/align, "ratio")

	pl.set("partition.extract_shard_s", timeIt(func() {
		for p := range plan.Parts {
			_, _ = partition.ExtractShard(fx.data.pair, &plan.Parts[p])
		}
	}), "s")
	pl.set("partition.merge_s", timeIt(func() {
		m := partition.NewMerger()
		for _, vs := range votes {
			for _, v := range vs {
				m.Add(v)
			}
		}
		m.Finish()
	}), "s")
	var links []multinet.ScoredLink
	for _, vs := range votes {
		for _, v := range vs {
			if v.Label == 1 {
				links = append(links, multinet.ScoredLink{NetI: 0, NetJ: 1, A: v.Link, Score: v.Score})
			}
		}
	}
	pl.set("multinet.reconcile_s", timeIt(func() { multinet.Reconcile(links) }), "s")
	return nil
}

// probeDistrib checks the subprocess session against a loopback one on
// fold 0 (identical anchors required), prices the wire against the
// in-process path on one plan, and times the seed export/install and
// the framing codec on seed-sized bodies.
func (fx *trainFixture) probeDistrib(e *env, last *replayOut, d *runDetail) error {
	pl := d.PerLayer
	loop, err := fx.replaySubproc(&env{}, 0, 0, distrib.Loopback{})
	if err != nil {
		return fmt.Errorf("loopback session: %w", err)
	}
	if got, want := anchorHash(loop.predicted), d.FoldAnchors["0"]; got != want {
		d.violate("fold 0: the loopback session predicts %s, the subprocess facade %s", got, want)
	}

	// Single-shot loopback against partition.Align on the same plan.
	plan := last.plan.WithBudget(queryBudget)
	inproc := timeIt(func() { _, _ = partition.Align(last.base, plan, fx.trainOpts(), fx.data.oracle) })
	coord := &distrib.Coordinator{Transport: distrib.Loopback{}, Opts: fx.distribOptions(last.base)}
	var cerr error
	loopback := timeIt(func() { _, _, cerr = coord.Run(fx.data.pair, plan, fx.data.oracle) })
	if cerr != nil {
		return fmt.Errorf("loopback coordinator: %w", cerr)
	}
	pl.set("distrib.loopback_overhead_s", loopback-inproc, "s")

	var seed *metadiag.Seed
	pl.set("metadiag.seed_export_s", timeIt(func() { seed, err = last.base.ExportSeed(features()) }), "s")
	if err != nil {
		return err
	}
	pl.set("metadiag.seed_nnz", float64(seed.NNZ()), "count")
	fresh, err := metadiag.NewCounter(fx.data.pair)
	if err != nil {
		return err
	}
	pl.set("metadiag.seed_into_s", timeIt(func() { err = fresh.SeedInto(seed) }), "s")
	if err != nil {
		return err
	}

	// Framing on a body the size of one shipped seed, floats on the
	// seed's own value column.
	body := make([]byte, int(last.wire.SeedBytes)/max(last.wire.SeedShips, 1))
	for i := range body {
		body[i] = byte(i * 31)
	}
	codec := framing.Codec{Magic: [2]byte{'B', 'N'}, Version: 1, MaxFrame: len(body) + 64, Checksum: true}
	var buf bytes.Buffer
	mbs := float64(len(body)) / 1e6
	pl.set("framing.write_mb_per_s", mbs/timeIt(func() { err = codec.WriteFrame(&buf, 1, body) }), "MB/s")
	if err != nil {
		return err
	}
	pl.set("framing.read_mb_per_s", mbs/timeIt(func() { _, _, err = codec.ReadFrame(&buf) }), "MB/s")
	if err != nil {
		return err
	}
	var vals []float64
	for i := range seed.Entries {
		vals = append(vals, seed.Entries[i].Val...)
	}
	var enc []byte
	fmb := float64(8*len(vals)) / 1e6
	pl.set("framing.enc_float64s_mb_per_s", fmb/timeIt(func() { enc = framing.AppendFloat64s(nil, vals) }), "MB/s")
	pl.set("framing.dec_float64s_mb_per_s", fmb/timeIt(func() { framing.NewDec(enc).Float64s() }), "MB/s")
	return nil
}

// sampleWorkerRSS polls the peak resident set of the live
// `activeiter -worker` children into *peak until the returned stop
// function is called.
func sampleWorkerRSS(peak *float64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				*peak = max(*peak, childPeakRSSMB("activeiter"))
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}
