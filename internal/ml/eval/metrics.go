// Package eval provides model-evaluation utilities: confusion
// matrices and the classification metrics read off them.
package eval

import "fmt"

// ConfusionMatrix counts predictions by (actual, predicted) class.
type ConfusionMatrix struct {
	// Classes is the class count.
	Classes int
	// Counts is row-major: Counts[actual*Classes+predicted].
	Counts []int64
}

// NewConfusionMatrix creates an empty k-class matrix.
func NewConfusionMatrix(k int) (*ConfusionMatrix, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: need >= 2 classes, got %d", k)
	}
	return &ConfusionMatrix{Classes: k, Counts: make([]int64, k*k)}, nil
}

// Add records one observation.
func (c *ConfusionMatrix) Add(actual, predicted int) error {
	if actual < 0 || actual >= c.Classes || predicted < 0 || predicted >= c.Classes {
		return fmt.Errorf("eval: labels (%d,%d) outside %d classes", actual, predicted, c.Classes)
	}
	c.Counts[actual*c.Classes+predicted]++
	return nil
}

// Total returns the number of recorded observations.
func (c *ConfusionMatrix) Total() int64 {
	var t int64
	for _, v := range c.Counts {
		t += v
	}
	return t
}

// Accuracy returns the trace ratio.
func (c *ConfusionMatrix) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	var hit int64
	for k := 0; k < c.Classes; k++ {
		hit += c.Counts[k*c.Classes+k]
	}
	return float64(hit) / float64(total)
}

// Precision returns TP/(TP+FP) for one class (0 when undefined).
func (c *ConfusionMatrix) Precision(class int) float64 {
	var predicted int64
	for a := 0; a < c.Classes; a++ {
		predicted += c.Counts[a*c.Classes+class]
	}
	if predicted == 0 {
		return 0
	}
	return float64(c.Counts[class*c.Classes+class]) / float64(predicted)
}

// Recall returns TP/(TP+FN) for one class (0 when undefined).
func (c *ConfusionMatrix) Recall(class int) float64 {
	var actual int64
	for p := 0; p < c.Classes; p++ {
		actual += c.Counts[class*c.Classes+p]
	}
	if actual == 0 {
		return 0
	}
	return float64(c.Counts[class*c.Classes+class]) / float64(actual)
}

// F1 returns the harmonic mean of precision and recall for one class.
func (c *ConfusionMatrix) F1(class int) float64 {
	p, r := c.Precision(class), c.Recall(class)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MacroF1 averages F1 over classes.
func (c *ConfusionMatrix) MacroF1() float64 {
	var s float64
	for k := 0; k < c.Classes; k++ {
		s += c.F1(k)
	}
	return s / float64(c.Classes)
}
