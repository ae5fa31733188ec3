package eval

import (
	"math"
	"testing"
)

func TestConfusionMatrixBasics(t *testing.T) {
	c, err := NewConfusionMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	// 2 correct class 0, 1 correct class 1, one 0→1 error.
	for _, pair := range [][2]int{{0, 0}, {0, 0}, {1, 1}, {0, 1}} {
		if err := c.Add(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	if c.Total() != 4 {
		t.Errorf("total = %d", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("accuracy = %v", got)
	}
	// Class 0: precision 2/2, recall 2/3.
	if got := c.Precision(0); got != 1 {
		t.Errorf("precision(0) = %v", got)
	}
	if got := c.Recall(0); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("recall(0) = %v", got)
	}
	// Class 1: precision 1/2, recall 1/1.
	if got := c.Precision(1); got != 0.5 {
		t.Errorf("precision(1) = %v", got)
	}
	if got := c.Recall(1); got != 1 {
		t.Errorf("recall(1) = %v", got)
	}
	// F1 for class 1 = 2*0.5*1/1.5.
	if got := c.F1(1); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("F1(1) = %v", got)
	}
	// Untouched class 2 has zero metrics, no NaN.
	if c.F1(2) != 0 || c.Precision(2) != 0 || c.Recall(2) != 0 {
		t.Error("empty class produced nonzero metrics")
	}
	if got := c.MacroF1(); math.IsNaN(got) {
		t.Error("MacroF1 NaN")
	}
}

func TestConfusionMatrixValidation(t *testing.T) {
	if _, err := NewConfusionMatrix(1); err == nil {
		t.Error("accepted 1 class")
	}
	c, _ := NewConfusionMatrix(2)
	if err := c.Add(2, 0); err == nil {
		t.Error("accepted out-of-range actual")
	}
	if c.Accuracy() != 0 {
		t.Error("empty accuracy not 0")
	}
}
