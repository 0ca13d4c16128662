// Package eval implements the paper's experimental protocol (Section
// IV-B): binary classification metrics, NP-ratio negative sampling,
// the 10-fold train/test rotation with sample-ratio subsampling, and
// mean±std aggregation across folds.
package eval

import (
	"fmt"
	"math"
)

// Confusion accumulates binary classification counts. Labels are 1
// (anchor link exists) and 0.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one (prediction, truth) pair.
func (c *Confusion) Add(pred, truth float64) {
	switch {
	case pred == 1 && truth == 1:
		c.TP++
	case pred == 1 && truth == 0:
		c.FP++
	case pred == 0 && truth == 0:
		c.TN++
	default:
		c.FN++
	}
}

// Total returns the number of recorded pairs.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Precision returns TP/(TP+FP), 0 when nothing was predicted positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when there are no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, 0 when both are
// 0.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// TPR returns the true positive rate TP/(TP+FN) — identical to Recall,
// named for ROC-style reporting (the oracle-noise matrix).
func (c Confusion) TPR() float64 { return c.Recall() }

// FPR returns the false positive rate FP/(FP+TN), 0 when there are no
// negatives.
func (c Confusion) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// Accuracy returns (TP+TN)/total, 0 on empty input.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Summary is a mean ± standard deviation over repeated runs.
type Summary struct {
	Mean, Std float64
	N         int
}

// Summarize computes the population mean and standard deviation.
func Summarize(vals []float64) Summary {
	n := len(vals)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return Summary{Mean: mean, Std: math.Sqrt(ss / float64(n)), N: n}
}

// String renders in the paper's table style, e.g. "0.631±0.01".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f±%.2f", s.Mean, s.Std)
}

// MetricSet groups the four reported metrics across folds.
type MetricSet struct {
	F1, Precision, Recall, Accuracy Summary
}

// SummarizeConfusions aggregates per-fold confusion matrices into a
// MetricSet.
func SummarizeConfusions(folds []Confusion) MetricSet {
	f1 := make([]float64, len(folds))
	pr := make([]float64, len(folds))
	rc := make([]float64, len(folds))
	ac := make([]float64, len(folds))
	for i, c := range folds {
		f1[i] = c.F1()
		pr[i] = c.Precision()
		rc[i] = c.Recall()
		ac[i] = c.Accuracy()
	}
	return MetricSet{
		F1:        Summarize(f1),
		Precision: Summarize(pr),
		Recall:    Summarize(rc),
		Accuracy:  Summarize(ac),
	}
}

// Metric names a column of MetricSet for table-driven reporting.
type Metric string

// The four metrics the paper reports.
const (
	MetricF1        Metric = "F1"
	MetricPrecision Metric = "Precision"
	MetricRecall    Metric = "Recall"
	MetricAccuracy  Metric = "Accuracy"
)

// AllMetrics lists the metrics in the paper's table order.
var AllMetrics = []Metric{MetricF1, MetricPrecision, MetricRecall, MetricAccuracy}

// Get returns the summary for the named metric.
func (m MetricSet) Get(metric Metric) Summary {
	switch metric {
	case MetricF1:
		return m.F1
	case MetricPrecision:
		return m.Precision
	case MetricRecall:
		return m.Recall
	case MetricAccuracy:
		return m.Accuracy
	default:
		panic(fmt.Sprintf("eval: unknown metric %q", metric))
	}
}
