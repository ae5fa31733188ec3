package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
)

// synth builds an exact two-slope series with the given knee.
func synth(knee, slopeLo, slopeHi float64, sizes []float64) []Point {
	// Continuous at the knee: hi intercept chosen so lines meet.
	pts := make([]Point, len(sizes))
	kneeVal := slopeLo * knee
	for i, s := range sizes {
		var sec float64
		if s <= knee {
			sec = slopeLo * s
		} else {
			sec = kneeVal + slopeHi*(s-knee)
		}
		pts[i] = Point{SizeBytes: s, Seconds: sec}
	}
	return pts
}

func paperSizes() []float64 {
	return []float64{10e9, 20e9, 30e9, 40e9, 70e9, 100e9, 130e9, 160e9, 190e9}
}

func TestFitRecoversSlopes(t *testing.T) {
	const knee = 32e9
	pts := synth(knee, 1e-9, 8e-9, paperSizes())
	m, err := Fit(pts, knee)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.InRAM.Slope-1e-9) > 1e-15 {
		t.Errorf("in-RAM slope = %v", m.InRAM.Slope)
	}
	if math.Abs(m.OutOfCore.Slope-8e-9) > 1e-15 {
		t.Errorf("out-of-core slope = %v", m.OutOfCore.Slope)
	}
	if m.InRAM.R2 < 0.9999 || m.OutOfCore.R2 < 0.9999 {
		t.Errorf("R² = %v, %v", m.InRAM.R2, m.OutOfCore.R2)
	}
	if r := m.SlopeRatio(); math.Abs(r-8) > 1e-6 {
		t.Errorf("slope ratio = %v want 8", r)
	}
}

func TestFitValidation(t *testing.T) {
	pts := synth(32e9, 1e-9, 8e-9, paperSizes())
	if _, err := Fit(pts, 0); err == nil {
		t.Error("accepted zero knee")
	}
	if _, err := Fit(pts[:2], 32e9); err == nil {
		t.Error("accepted points on one side only")
	}
}

func TestPredictSelectsRegime(t *testing.T) {
	const knee = 32e9
	pts := synth(knee, 1e-9, 8e-9, paperSizes())
	m, err := Fit(pts, knee)
	if err != nil {
		t.Fatal(err)
	}
	// In-RAM prediction.
	if got, want := m.Predict(20e9), 20.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("Predict(20GB) = %v want %v", got, want)
	}
	// Out-of-core prediction at unseen 250 GB.
	want := 32.0 + 8*(250-32) // seconds with slopes in s/GB
	if got := m.Predict(250e9); math.Abs(got-want) > 1e-6 {
		t.Errorf("Predict(250GB) = %v want %v", got, want)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	// Single point and vertical stack must not divide by zero.
	seg := fitLine([]Point{{SizeBytes: 5, Seconds: 7}})
	if seg.Intercept != 7 || seg.Slope != 0 {
		t.Errorf("single point fit = %+v", seg)
	}
	seg = fitLine([]Point{{5, 7}, {5, 9}})
	if math.IsNaN(seg.Intercept) || math.IsNaN(seg.Slope) {
		t.Errorf("vertical stack fit = %+v", seg)
	}
	if seg.Intercept != 8 {
		t.Errorf("vertical stack intercept = %v want mean 8", seg.Intercept)
	}
	if got := fitLine(nil); got.N != 0 {
		t.Errorf("empty fit = %+v", got)
	}
}

func TestStringContainsKnee(t *testing.T) {
	pts := synth(32e9, 1e-9, 8e-9, paperSizes())
	m, _ := Fit(pts, 32e9)
	if s := m.String(); len(s) == 0 {
		t.Error("empty String")
	}
}

// Property: for any positive two-slope synthetic series, Fit recovers
// slopes within floating-point tolerance and Predict interpolates the
// training points exactly.
func TestPropertyFitExactOnSynthetic(t *testing.T) {
	f := func(loRaw, hiRaw uint8) bool {
		lo := (float64(loRaw%50) + 1) * 1e-10
		hi := lo * (2 + float64(hiRaw%10))
		pts := synth(32e9, lo, hi, paperSizes())
		m, err := Fit(pts, 32e9)
		if err != nil {
			return false
		}
		for _, p := range pts {
			if math.Abs(m.Predict(p.SizeBytes)-p.Seconds) > 1e-6*math.Max(1, p.Seconds) {
				return false
			}
		}
		return m.SlopeRatio() > 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
