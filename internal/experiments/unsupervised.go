package experiments

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/eval"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/isorank"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
)

// RunUnsupervisedComparison contrasts the unsupervised IsoRank baseline
// (no labels at all) with Iter-MPMD and ActiveIter trained on 10% of the
// anchors, all producing a full one-to-one matching evaluated by anchor
// recovery: the fraction of ground-truth anchors present in the
// predicted matching, and the matching's precision. This quantifies
// what the paper's (active) supervision buys over the classic
// unsupervised alignment family its related-work section cites.
func RunUnsupervisedComparison(pre Preset) (*Table, error) {
	pr, err := newProtocol(pre)
	if err != nil {
		return nil, err
	}
	pair := pr.pair
	truth := pair.AnchorSet()
	nTrain := len(pair.Anchors) / 10
	if nTrain < 1 {
		nTrain = 1
	}
	train := pair.Anchors[:nTrain]

	type entry struct {
		name    string
		matches []hetnet.Anchor
		trained int
		queries int
	}
	var entries []entry

	// IsoRank: fully unsupervised.
	iso, err := isorank.Align(pair, isorank.Config{})
	if err != nil {
		return nil, err
	}
	entries = append(entries, entry{name: "IsoRank (unsupervised)", matches: iso.Matches})

	// Supervised runs over diagram-proposed candidates.
	counter := pr.base.Fork()
	counter.SetAnchors(train)
	ext := metadiag.NewExtractor(counter, schema.StandardLibrary().All(), true)
	cands, err := ext.Candidates(5)
	if err != nil {
		return nil, err
	}
	// The candidate pool is all hard negatives by construction; add
	// background random negatives so the ridge calibration sees the easy
	// mass it would in the paper's NP-ratio protocol.
	background, err := eval.SampleNegatives(pair, 10*len(pair.Anchors), newRunRNG(pre.Seed, 1, 1300))
	if err != nil {
		return nil, err
	}
	links := append(append([]hetnet.Anchor{}, train...), cands...)
	seen := make(map[int64]bool, len(links))
	for _, l := range links {
		seen[hetnet.Key(l.I, l.J)] = true
	}
	for _, l := range background {
		if !seen[hetnet.Key(l.I, l.J)] {
			seen[hetnet.Key(l.I, l.J)] = true
			links = append(links, l)
		}
	}
	x, err := ext.FeatureMatrix(links)
	if err != nil {
		return nil, err
	}
	labeled := make([]int, len(train))
	for k := range labeled {
		labeled[k] = k
	}
	runPU := func(name string, budget int) error {
		cfg := core.Config{Seed: pre.Seed}
		prob := core.Problem{Links: links, X: x, LabeledPos: labeled}
		if budget > 0 {
			cfg.Budget = budget
			cfg.Strategy = active.Conflict{}
			prob.Oracle = pr.truth
		}
		res, err := core.Train(prob, cfg)
		if err != nil {
			return err
		}
		var matches []hetnet.Anchor
		for idx, l := range links {
			if idx >= nTrain && res.Y[idx] == 1 {
				matches = append(matches, l)
			}
		}
		entries = append(entries, entry{name: name, matches: matches, trained: nTrain, queries: res.QueryCount()})
		return nil
	}
	if err := runPU("Iter-MPMD (10% labels)", 0); err != nil {
		return nil, err
	}
	if err := runPU("ActiveIter-50 (10% labels)", 50); err != nil {
		return nil, err
	}

	t := &Table{
		Title:     fmt.Sprintf("Unsupervised comparison — anchor recovery over the full pair space (preset %q)", pre.Name),
		ColHeader: "method",
		Cols:      []string{"recovered", "precision", "labels", "queries"},
	}
	sec := Section{Name: "anchor recovery"}
	for _, e := range entries {
		correct := 0
		for _, m := range e.matches {
			if truth[hetnet.Key(m.I, m.J)] {
				correct++
			}
		}
		// Recovery over the anchors the method could still find (the
		// supervised methods already hold nTrain of them as input).
		denom := len(pair.Anchors) - e.trained
		var precision float64
		if len(e.matches) > 0 {
			precision = float64(correct) / float64(len(e.matches))
		}
		sec.Rows = append(sec.Rows, TableRow{Label: e.name, Cells: []string{
			fmt.Sprintf("%.3f (%d/%d)", float64(correct)/float64(denom), correct, denom),
			fmt.Sprintf("%.3f", precision),
			fmt.Sprint(e.trained),
			fmt.Sprint(e.queries),
		}})
	}
	t.Sections = []Section{sec}
	return t, nil
}
