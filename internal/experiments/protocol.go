package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/svm"
)

// Preset bundles a dataset configuration with the experimental protocol
// scale.
type Preset struct {
	Name string
	Data datagen.Config
	// Folds is the cross-validation fold count (paper: 10).
	Folds int
	// ThetaValues sweeps the NP-ratio θ (paper: 5..50 step 5).
	ThetaValues []int
	// GammaValues sweeps the sample-ratio γ (paper: 0.1..1.0 step 0.1).
	GammaValues []float64
	// FixedTheta is Table IV's θ (paper: 50); FixedGamma is Table III's
	// γ (paper: 0.6).
	FixedTheta int
	FixedGamma float64
	// Budgets sweeps Figure 5's query budget b.
	Budgets []int
	// Seed drives the whole protocol.
	Seed int64
	// Workers caps how many folds train at once; 0 means serial.
	Workers int
	// Partitions shards every fold's candidate space this many ways for
	// the PU training family of the experiments the registry marks as
	// honouring it; ≤ 1 trains each fold as one part.
	Partitions int
}

// PaperPreset runs the full protocol shape of the paper on the
// paper-shaped dataset. Minutes of runtime.
func PaperPreset() Preset {
	return Preset{
		Name:        "paper",
		Data:        datagen.PaperShape(),
		Folds:       10,
		ThetaValues: []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50},
		GammaValues: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		FixedTheta:  50,
		FixedGamma:  0.6,
		Budgets:     []int{10, 25, 50, 75, 100},
		Seed:        2019,
		Workers:     8,
	}
}

// SmallPreset is the default: the full sweep shape on the small dataset.
// Tens of seconds.
func SmallPreset() Preset {
	p := PaperPreset()
	p.Name = "small"
	p.Data = datagen.Small()
	p.Workers = 8
	return p
}

// FullPreset runs a trimmed protocol on the crawl-scale dataset —
// Figure 4's scalability regime. Minutes of runtime, a few GB.
func FullPreset() Preset {
	return Preset{
		Name:        "full",
		Data:        datagen.FullScale(),
		Folds:       3,
		ThetaValues: []int{5, 10},
		GammaValues: []float64{0.6},
		FixedTheta:  5,
		FixedGamma:  0.6,
		Budgets:     []int{100},
		Seed:        2019,
		Workers:     8,
	}
}

// XLPreset runs a minimal protocol on the ~10×-crawl dataset — the
// partitioned-alignment stress scale. θ is small because the anchor set
// is huge (θ=2 already means a ~100k-link candidate pool); the point is
// user-count scale, not NP-ratio sweeps. Tens of minutes, tens of GB.
func XLPreset() Preset {
	return Preset{
		Name:        "xl",
		Data:        datagen.XLScale(),
		Folds:       2,
		ThetaValues: []int{2},
		GammaValues: []float64{0.6},
		FixedTheta:  2,
		FixedGamma:  0.6,
		Budgets:     []int{100},
		Seed:        2019,
		Workers:     4,
	}
}

// TinyPreset is for tests: trimmed sweeps on the tiny dataset.
func TinyPreset() Preset {
	return Preset{
		Name:        "tiny",
		Data:        datagen.Tiny(),
		Folds:       3,
		ThetaValues: []int{5, 20},
		GammaValues: []float64{0.3, 1.0},
		FixedTheta:  20,
		FixedGamma:  0.6,
		Budgets:     []int{5, 10},
		Seed:        7,
		Workers:     2,
	}
}

// MethodKind distinguishes the training families.
type MethodKind int

const (
	// KindPU is the PU-learning iterative family (ActiveIter and
	// Iter-MPMD).
	KindPU MethodKind = iota
	// KindSVM is the supervised baseline family.
	KindSVM
)

// FeatureKind selects the feature space.
type FeatureKind int

const (
	// MPMD uses meta paths and meta diagrams (31 features).
	MPMD FeatureKind = iota
	// MP uses meta paths only (6 features).
	MP
)

// Method is one comparison entry in the paper's tables.
type Method struct {
	Name     string
	Kind     MethodKind
	Features FeatureKind
	Budget   int
	Strategy active.Strategy
}

// StandardMethods returns the six methods of Tables III and IV, in the
// paper's row order.
func StandardMethods() []Method {
	return []Method{
		{Name: "ActiveIter-100", Kind: KindPU, Features: MPMD, Budget: 100, Strategy: active.Conflict{}},
		{Name: "ActiveIter-50", Kind: KindPU, Features: MPMD, Budget: 50, Strategy: active.Conflict{}},
		{Name: "ActiveIter-Rand-50", Kind: KindPU, Features: MPMD, Budget: 50, Strategy: active.Random{}},
		{Name: "Iter-MPMD", Kind: KindPU, Features: MPMD},
		{Name: "SVM-MPMD", Kind: KindSVM, Features: MPMD},
		{Name: "SVM-MP", Kind: KindSVM, Features: MP},
	}
}

// variant is one trained-and-scored row of an experiment: what to count,
// how to train on it and which labeller answers its queries.
type variant struct {
	name string
	// feats is the variant's own feature list, counted for it alone; nil
	// is the standard library, counted once per fold for every variant
	// that leaves it nil.
	feats []schema.Named
	// svm trains the supervised baseline on the fold's labelled links
	// instead of the PU model.
	svm bool
	// trace trains the fold as one part and keeps the *core.Result, for
	// the figures that read the training loop itself (its Δy series, its
	// wall time without counting and feature fill).
	trace bool
	// cfg carries Budget, Strategy and ExactSelection; the runner sets
	// the seed.
	cfg core.Config
	// oracle, when set, builds the labeller one fold trains against —
	// folds run concurrently, so a fresh one per call; nil is the
	// ground-truth oracle.
	oracle func() (active.Oracle, error)
}

func (m Method) variant() variant {
	v := variant{name: m.Name, svm: m.Kind == KindSVM, cfg: core.Config{Budget: m.Budget, Strategy: m.Strategy}}
	if m.Features == MP {
		v.feats = schema.StandardLibrary().PathsOnly()
	}
	return v
}

func standardVariants() []variant {
	var out []variant
	for _, m := range StandardMethods() {
		out = append(out, m.variant())
	}
	return out
}

// cell is one point of the protocol: NP-ratio θ, sample-ratio γ, and the
// variants compared on its folds.
type cell struct {
	theta int
	gamma float64
	// salt separates the random streams of experiments that share a θ;
	// the (θ, γ) sweeps salt by γ, so one cell draws the same pool in
	// every table it appears in.
	salt int
	// firstFold runs the cell's first fold only (the single-run figures).
	firstFold bool
	variants  []variant
}

func sweepSalt(gamma float64) int { return int(gamma * 1000) }

// outcome is one variant's result on one fold.
type outcome struct {
	conf eval.Confusion
	// oracle is the labeller the fold trained against (a variant's own
	// oracle keeps its ledger).
	oracle active.Oracle
	// elapsed is the round's wall time — the training loop alone for a
	// trace variant.
	elapsed time.Duration
	res     *core.Result // trace variants only
}

// summarize folds a variant's per-fold outcomes into the reported
// metrics.
func summarize(outs []outcome) eval.MetricSet {
	confs := make([]eval.Confusion, len(outs))
	for i, o := range outs {
		confs[i] = o.conf
	}
	return eval.SummarizeConfusions(confs)
}

// metricCells formats the named metrics of ms as table cells.
func metricCells(ms eval.MetricSet, metrics ...eval.Metric) []string {
	cells := make([]string, len(metrics))
	for i, m := range metrics {
		cells[i] = ms.Get(m).String()
	}
	return cells
}

// protocol is the evaluation protocol of the paper's Section IV on one
// generated dataset: sample θ·|L⁺| negatives, rotate k folds with the
// training fold subsampled to γ, train every variant on every fold
// through the partition pipeline (one part unless the preset shards),
// and score the test links the oracle did not label.
type protocol struct {
	pre   Preset
	pair  *hetnet.AlignedPair
	base  *metadiag.Counter
	truth active.Oracle

	// planner is the partition.SeedCached cache; folds plan concurrently.
	mu      sync.Mutex
	planner *partition.Planner
}

// newProtocol generates the preset's dataset and warms the counter every
// fold forks.
func newProtocol(pre Preset) (*protocol, error) {
	if len(pre.Budgets) == 0 {
		return nil, fmt.Errorf("experiments: preset %q has no query budgets", pre.Name)
	}
	pair, err := datagen.Generate(pre.Data)
	if err != nil {
		return nil, err
	}
	base, err := newBaseCounter(pair)
	if err != nil {
		return nil, err
	}
	return &protocol{pre: pre, pair: pair, base: base, truth: active.NewTruthOracle(pair)}, nil
}

// maxBudget is the preset's largest query budget, the one the
// single-budget experiments run at.
func (pr *protocol) maxBudget() int { return pr.pre.Budgets[len(pr.pre.Budgets)-1] }

// workers resolves Preset.Workers: 0 means serial.
func (pr *protocol) workers() int { return max(pr.pre.Workers, 1) }

// newBaseCounter builds the dataset-wide shared counter and warms the
// anchor-free layer of the standard library — every attribute-only
// sub-diagram, in the layer all forked counters share — so the Lemma-2
// covering-set reuse crosses fold and worker boundaries instead of
// being rebuilt per cell.
func newBaseCounter(pair *hetnet.AlignedPair) (*metadiag.Counter, error) {
	base, err := metadiag.NewCounter(pair)
	if err != nil {
		return nil, err
	}
	if err := base.Warm(schema.StandardLibrary().All()); err != nil {
		return nil, err
	}
	return base, nil
}

// newRunRNG derives a deterministic rng for a (seed, θ, salt) run.
func newRunRNG(seed int64, theta, salt int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(theta)*1_000_003 + int64(salt)*7919))
}

// folds draws the cell's negative pool and rotates the k folds over it.
func (pr *protocol) folds(theta int, gamma float64, salt int) ([]eval.Split, error) {
	rng := newRunRNG(pr.pre.Seed, theta, salt)
	neg, err := eval.SampleNegatives(pr.pair, theta*len(pr.pair.Anchors), rng)
	if err != nil {
		return nil, err
	}
	return eval.KFoldSplits(pr.pair.Anchors, neg, pr.pre.Folds, gamma, rng)
}

// plan shards a fold's pool k ways; one part, and no planner, at k = 1.
func (pr *protocol) plan(f *fold, budget, k int) (*partition.Plan, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	s, err := partition.SeedCached(pr.base, &pr.planner, f.whole.TrainPos, partition.Config{K: k})
	if err != nil {
		return nil, err
	}
	return s.Assign(f.whole.Candidates, budget)
}

// run evaluates every fold of every cell, up to Preset.Workers folds at
// a time; out[c][v][f] is variant v's outcome on fold f of cell c.
func (pr *protocol) run(cells ...cell) ([][][]outcome, error) {
	type task struct {
		cell, fold int
		split      eval.Split
	}
	var tasks []task
	out := make([][][]outcome, len(cells))
	for c, cl := range cells {
		splits, err := pr.folds(cl.theta, cl.gamma, cl.salt)
		if err != nil {
			return nil, err
		}
		if cl.firstFold {
			splits = splits[:1]
		}
		out[c] = make([][]outcome, len(cl.variants))
		for v := range out[c] {
			out[c][v] = make([]outcome, len(splits))
		}
		for f, split := range splits {
			tasks = append(tasks, task{c, f, split})
		}
	}
	errs := make([]error, len(tasks))
	sem := make(chan struct{}, pr.workers())
	var wg sync.WaitGroup
	for ti, tk := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f := pr.newFold(tk.split)
			for vi, v := range cells[tk.cell].variants {
				o, err := f.run(v)
				if err != nil {
					errs[ti] = fmt.Errorf("experiments: %s fold %d: %w", v.name, tk.split.Fold, err)
					return
				}
				out[tk.cell][vi][tk.fold] = o
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// fold is one train/test split under evaluation. What its variants share
// is built on first use and kept for the fold: the shard assignment, the
// sharded count of the standard library, and — for the SVM baselines and
// the trace variants, which read the whole fold's matrix — the fold
// counted and filled as one part.
type fold struct {
	pr    *protocol
	split eval.Split
	// whole is the fold as one part; its pool is
	// [trainPos | trainNeg | testPos | testNeg].
	whole  partition.Part
	plan   *partition.Plan
	begun  *partition.Begun
	filled *partition.Prepared
}

func (pr *protocol) newFold(split eval.Split) *fold {
	f := &fold{pr: pr, split: split, whole: partition.Part{TrainPos: split.TrainPos}}
	f.whole.Candidates = slices.Concat(split.TrainNeg, split.TestPos, split.TestNeg)
	return f
}

// firstFold is the first fold of the preset's fixed (θ, γ) cell — the one
// problem the executor comparisons (scalability, distributed) solve.
func (pr *protocol) firstFold(salt int) (*fold, error) {
	splits, err := pr.folds(pr.pre.FixedTheta, pr.pre.FixedGamma, salt)
	if err != nil {
		return nil, err
	}
	return pr.newFold(splits[0]), nil
}

// featuresOf resolves a variant's feature list: nil is the standard
// library.
func featuresOf(feats []schema.Named) []schema.Named {
	if feats == nil {
		return schema.StandardLibrary().All()
	}
	return feats
}

// planned shards the fold on first use.
func (f *fold) planned() (*partition.Plan, error) {
	if f.plan == nil {
		plan, err := f.pr.plan(f, 0, max(f.pr.pre.Partitions, 1))
		if err != nil {
			return nil, err
		}
		f.plan = plan
	}
	return f.plan, nil
}

// begin starts the fold's part pipelines under feats. Folds already fan
// out across Preset.Workers goroutines, so the parts of one fold run one
// at a time.
func (f *fold) begin(feats []schema.Named) (*partition.Begun, error) {
	if feats == nil && f.begun != nil {
		return f.begun, nil
	}
	plan, err := f.planned()
	if err != nil {
		return nil, err
	}
	b, err := partition.Begin(f.pr.base, plan.Parts, partition.TrainOptions{Features: featuresOf(feats), Workers: 1})
	if feats == nil {
		f.begun = b
	}
	return b, err
}

// fill counts and fills the whole fold as one part under feats. A
// one-part plan's part is the whole fold — Assign keeps candidate order —
// so the pipeline begin starts for the PU variants is the fill; a
// sharded fold begins the whole fold as a part of its own.
func (f *fold) fill(feats []schema.Named) (*partition.Prepared, error) {
	if feats == nil && f.filled != nil {
		return f.filled, nil
	}
	plan, err := f.planned()
	if err != nil {
		return nil, err
	}
	var b *partition.Begun
	part := &plan.Parts[0]
	if len(plan.Parts) == 1 {
		b, err = f.begin(feats)
	} else {
		part = &f.whole
		b, err = partition.Begin(f.pr.base, []partition.Part{f.whole}, partition.TrainOptions{Features: featuresOf(feats), Workers: 1})
	}
	if err != nil {
		return nil, err
	}
	pp, err := b.Prepared(0, part)
	if feats == nil {
		f.filled = pp
	}
	return pp, err
}

// run trains one variant on the fold and scores it on the test links.
func (f *fold) run(v variant) (outcome, error) {
	cfg := v.cfg
	cfg.Seed = f.pr.pre.Seed + int64(f.split.Fold)
	if v.svm {
		return f.runSVM(v, cfg.Seed)
	}
	oracle := f.pr.truth
	if v.oracle != nil {
		var err error
		if oracle, err = v.oracle(); err != nil {
			return outcome{}, err
		}
	}
	if v.trace {
		pp, err := f.fill(v.feats)
		if err != nil {
			return outcome{}, err
		}
		part := f.whole
		part.Budget = cfg.Budget
		res, err := pp.Train(&part, cfg, oracle)
		if err != nil {
			return outcome{}, err
		}
		return outcome{conf: scoreTest(f.split, res.LabelOf, res.WasQueried), oracle: oracle, elapsed: res.Elapsed, res: res}, nil
	}
	b, err := f.begin(v.feats)
	if err != nil {
		return outcome{}, err
	}
	res, err := b.Finish(f.plan.WithBudget(cfg.Budget), cfg, oracle)
	if err != nil {
		return outcome{}, err
	}
	return outcome{conf: scoreTest(f.split, res.Label, res.WasQueried), oracle: oracle, elapsed: res.Elapsed}, nil
}

// runSVM trains the supervised baseline on the fold's labelled rows —
// the leading trainPos (y = 1) and trainNeg (y = 0) rows of the pool —
// and scores the rest.
func (f *fold) runSVM(v variant, seed int64) (outcome, error) {
	pp, err := f.fill(v.feats)
	if err != nil {
		return outcome{}, err
	}
	x := pp.X()
	rows, d := x.Dims()
	nPos := len(f.split.TrainPos)
	nTrain := nPos + len(f.split.TrainNeg)
	xt := linalg.NewDense(nTrain, d)
	y := make([]float64, nTrain)
	for r := 0; r < nTrain; r++ {
		copy(xt.RowView(r), x.RowView(r))
		if r < nPos {
			y[r] = 1
		}
	}
	model, err := svm.Train(xt, y, svm.Config{Seed: seed})
	if err != nil {
		return outcome{}, err
	}
	var conf eval.Confusion
	for r := nTrain; r < rows; r++ {
		truth := 0.0
		if r < nTrain+len(f.split.TestPos) {
			truth = 1
		}
		conf.Add(model.Predict(x.RowView(r)), truth)
	}
	return outcome{conf: conf}, nil
}

// scoreTest scores a trained model on a split's test links. Links the
// oracle labelled during training are left out: their labels were
// given, not predicted (Section IV-B-3).
func scoreTest(split eval.Split, label func(i, j int) (float64, bool), queried func(i, j int) bool) eval.Confusion {
	var conf eval.Confusion
	add := func(links []hetnet.Anchor, truth float64) {
		for _, l := range links {
			if queried(l.I, l.J) {
				continue
			}
			lab, _ := label(l.I, l.J)
			conf.Add(lab, truth)
		}
	}
	add(split.TestPos, 1)
	add(split.TestNeg, 0)
	return conf
}
