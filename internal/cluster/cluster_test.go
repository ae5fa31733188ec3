package cluster

import (
	"math"
	"testing"
)

func testSpec() InstanceSpec {
	return InstanceSpec{
		Name:                "test",
		VCPUs:               4,
		MemoryBytes:         1000,
		HDFSScanBytesPerSec: 100,
		ComputeBytesPerSec:  400,
		NetworkBytesPerSec:  50,
	}
}

func testCost() CostModel {
	return CostModel{
		TaskOverheadSeconds:  0,
		StageOverheadSeconds: 0,
		AggLatencySeconds:    0,
		CacheFraction:        0.5,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, testSpec(), testCost()); err == nil {
		t.Error("accepted 0 instances")
	}
	bad := testSpec()
	bad.VCPUs = 0
	if _, err := New(2, bad, testCost()); err == nil {
		t.Error("accepted 0 vCPUs")
	}
	badCost := testCost()
	badCost.CacheFraction = 0
	if _, err := New(2, testSpec(), badCost); err == nil {
		t.Error("accepted zero cache fraction")
	}
	badCost2 := testCost()
	badCost2.StageOverheadSeconds = -1
	if _, err := New(2, testSpec(), badCost2); err == nil {
		t.Error("accepted negative overhead")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := M32XLarge().Validate(); err != nil {
		t.Errorf("M32XLarge invalid: %v", err)
	}
	if err := DefaultCostModel().Validate(); err != nil {
		t.Errorf("default cost model invalid: %v", err)
	}
}

func TestCacheCapacity(t *testing.T) {
	c, err := New(4, testSpec(), testCost())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.cacheCapacityBytes(); got != 2000 {
		t.Errorf("cache capacity = %d want 2000 (4×1000×0.5)", got)
	}
}

func TestNewRDDDefaults(t *testing.T) {
	c, _ := New(2, testSpec(), testCost())
	r, err := c.NewRDD(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Partitions != 2*2*4 {
		t.Errorf("default partitions = %d want 16", r.Partitions)
	}
	if _, err := c.NewRDD(0, 1); err == nil {
		t.Error("accepted empty dataset")
	}
}

func TestScanStageColdVsWarm(t *testing.T) {
	// Dataset 1000 bytes fits in cache (capacity 2000). Cold pass is
	// scan-bound at 100 B/s/instance; warm pass is compute-bound at
	// 400 B/s/instance.
	c, _ := New(4, testSpec(), testCost())
	r, _ := c.NewRDD(1000, 8)
	cold := c.ScanStage(r)
	if math.Abs(cold-1000.0/(4*100)) > 1e-9 {
		t.Errorf("cold scan = %v want 2.5", cold)
	}
	warm := c.ScanStage(r)
	if math.Abs(warm-1000.0/(4*400)) > 1e-9 {
		t.Errorf("warm scan = %v want 0.625", warm)
	}
	if warm >= cold {
		t.Errorf("warm (%v) not faster than cold (%v)", warm, cold)
	}
}

func TestScanStagePartialCache(t *testing.T) {
	// Dataset 4000 bytes, cache 2000: after the first pass half the
	// partitions stay cached and every later pass pays HDFS for the
	// other half.
	c, _ := New(4, testSpec(), testCost())
	r, _ := c.NewRDD(4000, 8)
	c.ScanStage(r)
	warm := c.ScanStage(r)
	// 4 cold partitions (500B each) scan-paced + 4 warm compute-paced,
	// over 16 slots: (4*5 + 4*1.25)/16
	want := (4*(500.0/25) + 4*(500.0/100)) / 16
	if math.Abs(warm-want) > 1e-9 {
		t.Errorf("partial-cache scan = %v want %v", warm, want)
	}
}

func TestMoreInstancesScanFaster(t *testing.T) {
	small, _ := New(4, testSpec(), testCost())
	big, _ := New(8, testSpec(), testCost())
	rs, _ := small.NewRDD(100000, 64)
	rb, _ := big.NewRDD(100000, 64)
	ts := small.ScanStage(rs)
	tb := big.ScanStage(rb)
	if tb >= ts {
		t.Errorf("8 instances (%v) not faster than 4 (%v)", tb, ts)
	}
	if math.Abs(ts/tb-2) > 0.01 {
		t.Errorf("cold scan speedup = %v want ~2", ts/tb)
	}
}

func TestStageOverheadCharged(t *testing.T) {
	cost := testCost()
	cost.StageOverheadSeconds = 10
	c, _ := New(2, testSpec(), cost)
	r, _ := c.NewRDD(100, 2)
	tm := c.ScanStage(r)
	if tm < 10 {
		t.Errorf("stage time %v does not include overhead", tm)
	}
	if c.Stages() != 1 {
		t.Errorf("stages = %d", c.Stages())
	}
}

func TestAggregateStageScalesWithLevels(t *testing.T) {
	cost := testCost()
	cost.AggLatencySeconds = 1
	c2, _ := New(2, testSpec(), cost)
	c8, _ := New(8, testSpec(), cost)
	t2 := c2.AggregateStage(0)
	t8 := c8.AggregateStage(0)
	if t8 <= t2 {
		t.Errorf("8-instance aggregate (%v) not deeper than 2-instance (%v)", t8, t2)
	}
	// Network term: 50 bytes at 50 B/s = 1s per level.
	c2b, _ := New(2, testSpec(), testCost())
	if got := c2b.AggregateStage(50); math.Abs(got-1) > 1e-9 {
		t.Errorf("aggregate transfer = %v want 1", got)
	}
}

func TestBroadcastStage(t *testing.T) {
	c, _ := New(8, testSpec(), testCost())
	tm := c.BroadcastStage(50)
	// 4 rounds (1→2→4→8 plus initial) × 1s transfer
	if tm <= 0 {
		t.Errorf("broadcast = %v", tm)
	}
	before := c.Clock()
	c.BroadcastStage(50)
	if c.Clock() <= before {
		t.Error("clock did not advance")
	}
}

func TestDriverCompute(t *testing.T) {
	c, _ := New(2, testSpec(), testCost())
	// Per-core speed = 400/4 = 100 B/s.
	if got := c.DriverCompute(200); math.Abs(got-2) > 1e-9 {
		t.Errorf("driver compute = %v want 2", got)
	}
}

// The structural property behind Figure 1b: for an out-of-core-sized
// dataset, doubling the cluster more than doubles iteration speed
// (cache crossover), and per-iteration fixed costs keep the small
// cluster far behind a single fast-disk machine.
func TestCacheCrossoverBetween4And8Instances(t *testing.T) {
	spec := M32XLarge()
	cost := DefaultCostModel()
	const dataset = 190e9

	iterTime := func(n int) float64 {
		c, err := New(n, spec, cost)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := c.NewRDD(int64(dataset), 0)
		c.ScanStage(r) // warm-up pass fills cache
		var total float64
		for i := 0; i < 10; i++ {
			total += c.ScanStage(r)
		}
		return total
	}
	t4 := iterTime(4)
	t8 := iterTime(8)
	ratio := t4 / t8
	if ratio <= 2 {
		t.Errorf("4→8 instance speedup = %v; cache crossover should make it superlinear (> 2)", ratio)
	}
}
