// Package vm simulates the virtual-memory mechanism M3 relies on:
// a fixed-size page cache with LRU eviction, kernel-style sequential
// read-ahead, and a disk whose service time is accounted in simulated
// seconds.
//
// The real OS behaviour (Linux page cache + madvise read-ahead) is
// exercised by internal/mmap; this package exists so the paper's
// 10–190 GB experiments (RAM = 32 GB, Figure 1a) can be regenerated
// deterministically on hardware that has neither 190 GB of disk to
// spare nor 32 GB of RAM. The first-order cost model — pages fault in
// at disk bandwidth, sequential scans trigger read-ahead, a working
// set below RAM never faults twice — is exactly what produces the
// paper's two-slope linear curve.
//
// Paged puts a Memory behind the store.Store interface, so the real
// trainers run unchanged over a simulated dataset of any nominal size.
// The engine and the daemons never link this package; the
// paper-figure experiments (internal/bench) and tests do.
package vm

import "fmt"

// DiskModel describes a storage device in simulated seconds.
type DiskModel struct {
	// BandwidthBytes is the sustained sequential read bandwidth in
	// bytes per simulated second.
	BandwidthBytes float64
	// WriteBandwidthBytes is the sustained sequential write bandwidth;
	// zero selects BandwidthBytes (a symmetric device).
	WriteBandwidthBytes float64
	// SeekSeconds is the penalty for a non-contiguous request.
	SeekSeconds float64
	// RequestSeconds is the fixed per-request overhead (command
	// dispatch, interrupt handling).
	RequestSeconds float64
}

// Validate reports whether the model is usable.
func (d DiskModel) Validate() error {
	if d.BandwidthBytes <= 0 {
		return fmt.Errorf("vm: disk bandwidth must be positive, got %g", d.BandwidthBytes)
	}
	if d.WriteBandwidthBytes < 0 {
		return fmt.Errorf("vm: negative disk write bandwidth %g", d.WriteBandwidthBytes)
	}
	if d.SeekSeconds < 0 || d.RequestSeconds < 0 {
		return fmt.Errorf("vm: negative disk latency")
	}
	return nil
}

// ReadTime returns the simulated service time for a single request of
// n bytes. contiguous indicates the request starts where the previous
// one ended, skipping the seek penalty.
func (d DiskModel) ReadTime(n int64, contiguous bool) float64 {
	if n <= 0 {
		return 0
	}
	t := d.RequestSeconds + float64(n)/d.BandwidthBytes
	if !contiguous {
		t += d.SeekSeconds
	}
	return t
}

// WriteTime returns the simulated service time for writing one request
// of n bytes — write-back of evicted dirty pages. Writes stream at the
// device's write bandwidth and pay the same per-request latencies as
// reads; contiguous indicates the request starts where the previous
// write-back ended, skipping the seek penalty.
func (d DiskModel) WriteTime(n int64, contiguous bool) float64 {
	if n <= 0 {
		return 0
	}
	bw := d.WriteBandwidthBytes
	if bw <= 0 {
		bw = d.BandwidthBytes
	}
	t := d.RequestSeconds + float64(n)/bw
	if !contiguous {
		t += d.SeekSeconds
	}
	return t
}

// SSD returns a model of the paper's OCZ RevoDrive 350-class PCIe SSD
// (~1.6 GB/s effective sequential read; the device is rated 1.8 GB/s
// read, 1.7 GB/s write — the same derating gives ~1.5 GB/s effective
// write).
func SSD() DiskModel {
	return DiskModel{
		BandwidthBytes:      1.64e9,
		WriteBandwidthBytes: 1.5e9,
		SeekSeconds:         60e-6,
		RequestSeconds:      15e-6,
	}
}

// HDD returns a model of a 7200 RPM spinning disk, used by ablation
// benches to show M3's sensitivity to storage speed (§3.1: "strong
// potential for reaching even higher speed if we use faster disks").
// Spinning media reads and writes at the same platter rate, so the
// write bandwidth is left to default to the read bandwidth.
func HDD() DiskModel {
	return DiskModel{
		BandwidthBytes: 150e6,
		SeekSeconds:    8e-3,
		RequestSeconds: 100e-6,
	}
}

// RAID0 returns an n-way stripe over the given model: n× bandwidth
// in both directions, same latencies. The paper calls out RAID 0 as a
// configuration that could lift M3's I/O bound.
func RAID0(base DiskModel, n int) DiskModel {
	if n < 1 {
		n = 1
	}
	base.BandwidthBytes *= float64(n)
	base.WriteBandwidthBytes *= float64(n)
	return base
}
