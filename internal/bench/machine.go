// Package bench is the experiment harness that regenerates every
// table and figure of the paper's evaluation:
//
//	Figure 1a — M3 runtime vs dataset size (10–190 GB, RAM = 32 GB)
//	Figure 1b — M3 vs 4- and 8-instance Spark, logreg and k-means
//	Table 1   — exercised by examples/quickstart (API surface)
//	§3.1      — I/O-bound utilization report
//	§4        — access-pattern study and runtime prediction
//
// Simulated runs execute the real algorithms (L-BFGS logistic
// regression, Lloyd k-means) on a scaled-down matrix while paging and
// cluster costs are accounted at nominal (paper) scale.
package bench

import (
	"m3/internal/vm"
)

// Machine describes the single-PC platform M3 runs on. The paper's
// desktop: Intel i7-4770K (8 hyperthreads), 32 GB RAM, OCZ RevoDrive
// 350 PCIe SSD.
type Machine struct {
	// RAMBytes is the page-cache budget (32 GB in the paper).
	RAMBytes int64
	// Disk models the storage device.
	Disk vm.DiskModel
	// CPUScanBytesPerSec is the aggregate throughput of the ML inner
	// loop over resident data. Calibrated so that out-of-core runs
	// show ≈13% CPU utilization against the saturated disk, matching
	// the paper's observation (§3.1).
	CPUScanBytesPerSec float64
}

// PaperPC returns the paper's experiment machine.
func PaperPC() Machine {
	return Machine{
		RAMBytes:           32e9,
		Disk:               vm.SSD(),
		CPUScanBytesPerSec: 12.6e9,
	}
}

// WithDisk returns a copy of the machine with a different disk — the
// paper's "faster disks or RAID 0" speculation, used by ablations.
func (m Machine) WithDisk(d vm.DiskModel) Machine {
	m.Disk = d
	return m
}

// vmConfig builds the simulated-memory configuration for a nominal
// dataset size. Page size scales with the dataset (~64Ki pages per
// sweep point) to keep simulation cost flat across 10–190 GB.
func (m Machine) vmConfig(nominalBytes int64) vm.Config {
	page := nominalBytes / (64 << 10)
	if page < 4096 {
		page = 4096
	}
	return vm.Config{
		PageSize:   page,
		CacheBytes: m.RAMBytes,
		Disk:       m.Disk,
	}
}
