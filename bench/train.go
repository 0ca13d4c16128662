package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"time"

	activeiter "github.com/activeiter/activeiter"
)

// alignResult is the read side every facade's result offers; the
// correctness checks and the F1 score need nothing else.
type alignResult interface {
	activeiter.AlignmentResult
	PredictedAnchors() []activeiter.Anchor
	QueryCount() int
}

// trainFixture is the set-up product of a label→model workload.
type trainFixture struct {
	name      string // the workload: it picks the facade op runs
	data      *dataset
	opts      activeiter.Options
	workerBin string              // shard_subproc: the built cmd/activeiter
	warm      *activeiter.Aligner // fold_warm: the long-lived aligner
	ref       *refWorker          // the reference op's process (ref.go), started by measure
}

func (fx *trainFixture) close() {
	if fx.ref != nil {
		fx.ref.stop()
	}
}

// setupTrain generates the pair and, for shard_subproc, builds the
// worker binary — everything an op needs that is not the op.
func setupTrain(ctx context.Context, e *env, name string) (*trainFixture, error) {
	data, err := newDataset(e.preset, e.opts.seed)
	if err != nil {
		return nil, err
	}
	fx := &trainFixture{name: name, data: data, opts: trainOptions(e.opts.seed)}
	switch name {
	case "fold_warm":
		if fx.warm, err = activeiter.New(data.pair, fx.opts); err != nil {
			return nil, err
		}
	case "shard_inproc":
		fx.opts.Partitions = shardK
	case "shard_subproc":
		fx.opts.Partitions = shardK
		fx.opts.Rounds = subRounds
		fx.opts.Workers = subWorkers
		bin, err := buildBinaries(ctx, e.root, "activeiter")
		if err != nil {
			return nil, err
		}
		fx.workerBin = filepath.Join(bin, "activeiter")
	}
	return fx, nil
}

// op runs one label→model operation of the workload on fold f through
// the public facade. The wire audit is non-nil for shard_subproc only.
func (fx *trainFixture) op(f int) (alignResult, *activeiter.DistributedMetrics, error) {
	train, cands, _ := fx.data.fold(f)
	switch fx.name {
	case "mono_cold":
		al, err := activeiter.New(fx.data.pair, fx.opts)
		if err != nil {
			return nil, nil, err
		}
		res, err := al.Align(train, cands, fx.data.oracle)
		return res, nil, err
	case "fold_warm":
		res, err := fx.warm.Align(train, cands, fx.data.oracle)
		return res, nil, err
	case "shard_inproc":
		pa, err := activeiter.NewPartitioned(fx.data.pair, fx.opts)
		if err != nil {
			return nil, nil, err
		}
		res, err := pa.Align(train, cands, fx.data.oracle)
		return res, nil, err
	case "shard_subproc":
		da, err := activeiter.NewDistributed(fx.data.pair, fx.opts,
			activeiter.NewWorkerProcessTransport(fx.workerBin, "-worker"))
		if err != nil {
			return nil, nil, err
		}
		res, err := da.Align(train, cands, fx.data.oracle)
		return res, da.Metrics(), err
	}
	return nil, nil, fmt.Errorf("unknown train workload %q", fx.name)
}

// opSample is one timed op.
type opSample struct {
	fold      int
	wallS     float64
	refS      float64 // the reference op that followed it
	peakMB    float64 // peak resident set while it ran
	cpuS      float64
	allocB    float64
	f1        float64
	wireBytes float64
	retries   int
	fallbacks int
}

// heapAllocBytes reads the cumulative Go heap allocation counter
// without stopping the world.
func heapAllocBytes() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// timedOp runs one op with a collected heap in front of it and returns
// its sample and result. Correctness and F1 are evaluated outside the
// timed region.
func (fx *trainFixture) timedOp(f int, d *runDetail) (opSample, alignResult, error) {
	runtime.GC()
	resetPeakRSS()
	a0, c0, t0 := heapAllocBytes(), cpuSelfAndReaped(), time.Now()
	res, wire, err := fx.op(f)
	s := opSample{
		fold:   f % folds,
		wallS:  time.Since(t0).Seconds(),
		cpuS:   cpuSelfAndReaped() - c0,
		allocB: heapAllocBytes() - a0,
		peakMB: peakRSSMB(0),
	}
	if err != nil {
		return s, nil, err
	}
	if wire != nil {
		s.wireBytes = float64(wire.JobBytes + wire.SeedBytes + wire.DeltaBytes + wire.ResultBytes)
		s.retries, s.fallbacks = wire.Retries, wire.Fallbacks
	}
	s.f1 = fx.check(res, f, d)
	return s, res, nil
}

// check enforces the paper's guarantees on one result — one-to-one
// output, budget never exceeded, an oracle "no" never overruled — and
// the repo's own: the same fold always predicts the same anchors. It
// returns the F1 on the held-out pool.
func (fx *trainFixture) check(res alignResult, f int, d *runDetail) float64 {
	_, _, testPos := fx.data.fold(f)
	pred := res.PredictedAnchors()
	seenI, seenJ := make(map[int]bool, len(pred)), make(map[int]bool, len(pred))
	for _, a := range pred {
		if seenI[a.I] || seenJ[a.J] {
			d.violate("fold %d: predicted anchors are not one-to-one at (%d,%d)", f%folds, a.I, a.J)
			break
		}
		seenI[a.I], seenJ[a.J] = true, true
		if res.WasQueried(a.I, a.J) && !fx.data.pair.HasAnchor(a.I, a.J) {
			d.violate("fold %d: (%d,%d) predicted positive although the oracle answered negative", f%folds, a.I, a.J)
			break
		}
	}
	if q := res.QueryCount(); q > queryBudget {
		d.violate("fold %d: %d oracle queries exceed the budget of %d", f%folds, q, queryBudget)
	}
	key, hash := strconv.Itoa(f%folds), anchorHash(pred)
	if prev, ok := d.FoldAnchors[key]; ok && prev != hash {
		d.violate("fold %d: predicted anchors changed between ops (%s then %s)", f%folds, prev, hash)
	}
	d.FoldAnchors[key] = hash
	return activeiter.EvaluateAlignment(res, testPos, fx.data.negatives).F1
}

// minTrainOps is the floor on measured ops when --seconds is too short
// for the preset: a median needs at least three.
const minTrainOps = 3

// measure discards one warm-up op, then runs ops on rotating folds for
// the configured time, each followed by one reference op (ref.go), and
// fills the end-to-end metrics.
func (fx *trainFixture) measure(ctx context.Context, e *env, d *runDetail) error {
	var err error
	if fx.ref, err = startRefWorker(); err != nil {
		return err
	}
	if _, _, err := fx.timedOp(folds-1, d); err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	var ops []opSample
	phaseStart := time.Now()
	budget := e.measureFor()
	for f := 0; len(ops) < minTrainOps || time.Since(phaseStart) < budget; f++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		s, _, err := fx.timedOp(f, d)
		if err != nil {
			return fmt.Errorf("op %d (fold %d): %w", f, f%folds, err)
		}
		ref, err := fx.ref.run()
		if err != nil {
			return err
		}
		s.refS = ref.Seconds()
		ops = append(ops, s)
	}
	d.addPhase(phaseReport{Name: "align", Seconds: time.Since(phaseStart).Seconds(),
		Attempted: len(ops) + 1, Succeeded: len(ops) + 1})
	trainMetrics(ops, d)
	return nil
}

// trainMetrics reduces the op samples to the workload's metrics.
func trainMetrics(ops []opSample, d *runDetail) {
	col := func(get func(opSample) float64) []float64 {
		out := make([]float64, len(ops))
		for i, s := range ops {
			out[i] = get(s)
		}
		return out
	}
	wall := col(func(s opSample) float64 { return s.wallS })
	cpu := col(func(s opSample) float64 { return s.cpuS })
	alloc := col(func(s opSample) float64 { return s.allocB })
	ref := col(func(s opSample) float64 { return s.refS })

	// A fold's F1 is a pure function of the seed, so the mean over the
	// distinct folds seen does not move with how many ops the run fitted.
	foldF1 := map[int]float64{}
	for _, s := range ops {
		foldF1[s.fold] = s.f1
	}
	f1 := 0.0
	for _, v := range foldF1 {
		f1 += v / float64(len(foldF1))
	}

	d.EndToEnd.set("op_p50_vs_ref", medianRatio(wall, ref), "ratio")
	d.EndToEnd.set("peak_rss_mb", median(col(func(s opSample) float64 { return s.peakMB })), "MB")
	d.EndToEnd.set("f1", f1, "ratio")

	d.Extra.set("bench.ref_op_ms", median(ref)*1e3, "ms")
	d.Extra.set("align_p50_s", median(wall), "s")
	d.Extra.set("align_p90_s", percentile(wall, 90), "s")
	d.Extra.set("align_cpu_s", median(cpu), "cpu_s")
	d.Extra.set("alloc_mb_per_op", median(alloc)/1e6, "MB")
	d.Extra.set("fail_ratio", float64(d.Failed)/float64(max(d.Attempted, 1)), "ratio")
	if d.Workload == "shard_subproc" {
		d.Extra.set("wire_bytes_per_op", median(col(func(s opSample) float64 { return s.wireBytes })), "B")
		retries, fallbacks := 0, 0
		for _, s := range ops {
			retries += s.retries
			fallbacks += s.fallbacks
		}
		d.Extra.set("distrib.retries", float64(retries), "count")
		d.Extra.set("distrib.fallbacks", float64(fallbacks), "count")
	}
}
