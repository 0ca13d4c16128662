package activeiter

import (
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/oracle"
)

// Unreliable-oracle facade: Options.OracleConfig interposes a simulated
// labeler panel (internal/oracle) between the training loop and the
// caller's ground-truth oracle. See docs/ORACLES.md for the labeler
// models, the vote and trust math, and the knob reference.

// OracleConfig describes a simulated labeler pool: how many honest,
// noisy, adversarial and colluding labelers back the panel, the
// replication factor R, and the trust cutoff.
type OracleConfig = oracle.Config

// OraclePanel replicates oracle queries across R labelers, resolves by
// majority vote, tracks one-to-one contradictions, and scores
// per-labeler trust. It implements Oracle.
type OraclePanel = oracle.Panel

// PanelReport is a panel run's audit summary.
type PanelReport = oracle.Report

// LabelerTrust is one labeler's Beta-posterior trust row.
type LabelerTrust = oracle.LabelerTrust

// WeightedLabel is one panel-resolved link with its trust-weighted
// confidence, as emitted by OraclePanel.WeightedLabels and consumed by
// AlignPrelabeled.
type WeightedLabel = oracle.WeightedLabel

// NewOraclePanel builds a standalone labeler panel around a
// ground-truth oracle — the same construction Options.OracleConfig
// performs per Align call, exposed for callers that drive the panel
// directly (e.g. to harvest WeightedLabels for AlignPrelabeled).
func NewOraclePanel(cfg OracleConfig, truth Oracle) (*OraclePanel, error) {
	return cfg.Build(truth)
}

// wrapOracle interposes the configured labeler panel, if any, between
// the training loop and the caller's oracle. Each Align call gets a
// fresh panel (its ledger audits exactly one run); a nil oracle passes
// through untouched so Budget-0 runs stay valid.
func (o Options) wrapOracle(truth Oracle) (Oracle, *OraclePanel, error) {
	if o.OracleConfig == nil || truth == nil {
		return truth, nil, nil
	}
	p, err := o.OracleConfig.Build(truth)
	if err != nil {
		return nil, nil, err
	}
	return p, p, nil
}

// prelabels turns weighted labels into the fixed labels of a run, each
// carrying WeightedLabel.Value() as its target. Links also present in
// trainPos are skipped — they are already fixed ground truth — as are
// duplicate claims on one link (first wins).
func prelabels(trainPos []Anchor, pre []WeightedLabel) []LabeledLink {
	if len(pre) == 0 {
		return nil
	}
	seen := make(map[int64]bool, len(trainPos)+len(pre))
	for _, l := range trainPos {
		seen[hetnet.Key(l.I, l.J)] = true
	}
	var out []LabeledLink
	for _, wl := range pre {
		if k := hetnet.Key(wl.Link.I, wl.Link.J); !seen[k] {
			seen[k] = true
			out = append(out, LabeledLink{Link: wl.Link, Label: wl.Value()})
		}
	}
	return out
}

// Panel returns the labeler panel of the last Align call — its trust
// scores, contradiction ledger and weighted labels. Nil when
// Options.OracleConfig is unset or Align has not run.
func (sa *shardedAligner) Panel() *OraclePanel { return sa.panel }
