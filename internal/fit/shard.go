package fit

import (
	"errors"
	"fmt"
)

// Shard is what a pass's block kernel reads beside the rows the scan
// hands it: the row width, typed views of the labels, and whatever
// row-indexed scratch the fit keeps between passes. A local fit has
// one shard covering every row; a distributed worker has one per
// session, covering its row range and indexed from zero; a coordinator
// has an empty one — same width, same labelledness, no rows — against
// which it builds the aggregates it only allocates and merges with.
type Shard struct {
	// Rows and Cols are the shard's shape.
	Rows, Cols int
	// Labels are the raw labels, one per row (nil when unlabelled).
	Labels []float64
	// ClassIDs, when non-nil, are class indices the caller already
	// holds; Classes validates and returns them instead of converting
	// Labels.
	ClassIDs []int
	// Scratch is the per-fit row-indexed state an algorithm parks here
	// on its first pass (k-means assignments and seeding distances) so
	// that later passes — and the worker ops that read it back — find
	// it. A new fit starts from a new Shard.
	Scratch any

	// Label views are built on first use and kept for the fit.
	binary   []float64
	binarize bool
	positive float64
	classes  []int
	nclasses int
}

var errNoLabels = errors.New("fit: dataset has no labels")

// Targets returns the raw labels as regression targets.
func (sh *Shard) Targets() ([]float64, error) {
	if sh.Labels == nil {
		return nil, errNoLabels
	}
	if len(sh.Labels) != sh.Rows {
		return nil, fmt.Errorf("fit: %d rows but %d labels", sh.Rows, len(sh.Labels))
	}
	return sh.Labels, nil
}

// Binary returns the 0/1 labels of a binary classifier: with binarize
// set, 1 where the label equals positive (the paper's "digit d vs
// rest" tasks); otherwise the labels themselves, which must already be
// 0 or 1.
func (sh *Shard) Binary(binarize bool, positive float64) ([]float64, error) {
	//m3vet:allow floateq -- cache key: the positive class is a config value compared verbatim, not computed
	if sh.binary != nil && sh.binarize == binarize && sh.positive == positive {
		return sh.binary, nil
	}
	y, err := sh.Targets()
	if err != nil {
		return nil, err
	}
	if binarize {
		y = BinaryLabels(y, positive)
	} else {
		for i, v := range y {
			if v != 0 && v != 1 {
				return nil, fmt.Errorf("fit: label[%d] = %v, want 0 or 1", i, v)
			}
		}
	}
	sh.binary, sh.binarize, sh.positive = y, binarize, positive
	return y, nil
}

// Classes returns the labels as class indices in [0, k).
func (sh *Shard) Classes(k int) ([]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("fit: need >= 2 classes, got %d", k)
	}
	if sh.classes != nil && sh.nclasses == k {
		return sh.classes, nil
	}
	y := sh.ClassIDs
	if y == nil {
		labels, err := sh.Targets()
		if err != nil {
			return nil, err
		}
		if y, err = IntLabels(labels, k); err != nil {
			return nil, err
		}
	} else {
		if len(y) != sh.Rows {
			return nil, fmt.Errorf("fit: %d rows but %d labels", sh.Rows, len(y))
		}
		for i, v := range y {
			if v < 0 || v >= k {
				return nil, fmt.Errorf("fit: label[%d] = %d outside [0,%d)", i, v, k)
			}
		}
	}
	sh.classes, sh.nclasses = y, k
	return y, nil
}

// BinaryLabels converts multiclass labels to a 0/1 vector marking the
// positive class.
func BinaryLabels(labels []float64, positive float64) []float64 {
	out := make([]float64, len(labels))
	for i, v := range labels {
		//m3vet:allow floateq -- class labels are exact ids, never computed
		if v == positive {
			out[i] = 1
		}
	}
	return out
}

// IntLabels converts float labels to class indices, validating that
// every entry is a whole number in [0, classes).
func IntLabels(labels []float64, classes int) ([]int, error) {
	out := make([]int, len(labels))
	for i, v := range labels {
		n := int(v)
		//m3vet:allow floateq -- integrality check: exact comparison is the test
		if float64(n) != v || n < 0 || n >= classes {
			return nil, fmt.Errorf("fit: label[%d] = %v not an integer in [0,%d)", i, v, classes)
		}
		out[i] = n
	}
	return out, nil
}
