package obs

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// ProcSnapshot captures process-level resource counters from the
// Linux /proc filesystem. All fields are cumulative since process
// start; diff two snapshots with Sub to measure an interval.
type ProcSnapshot struct {
	UserSeconds   float64 // CPU time in user mode (/proc/self/stat utime)
	SystemSeconds float64 // CPU time in kernel mode (/proc/self/stat stime)
	ReadBytes     int64   // bytes fetched from storage (/proc/self/io read_bytes)
	MajorFaults   int64   // page faults that hit disk (/proc/self/stat majflt)
}

// Sub returns the delta s - earlier.
func (s ProcSnapshot) Sub(earlier ProcSnapshot) ProcSnapshot {
	return ProcSnapshot{
		UserSeconds:   s.UserSeconds - earlier.UserSeconds,
		SystemSeconds: s.SystemSeconds - earlier.SystemSeconds,
		ReadBytes:     s.ReadBytes - earlier.ReadBytes,
		MajorFaults:   s.MajorFaults - earlier.MajorFaults,
	}
}

// ReadProc takes a best-effort snapshot of the current process.
// Fields that cannot be read are left zero; the error is non-nil only
// when nothing could be read at all (no /proc, or restricted).
func ReadProc() (ProcSnapshot, error) {
	var snap ProcSnapshot
	var statErr, ioErr error
	if b, err := os.ReadFile("/proc/self/stat"); err != nil {
		statErr = err
	} else if s, err := ParseProcStat(string(b)); err != nil {
		statErr = err
	} else {
		snap = s
	}
	if b, err := os.ReadFile("/proc/self/io"); err != nil {
		ioErr = err
	} else if rb, err := ParseProcIO(string(b)); err != nil {
		ioErr = err
	} else {
		snap.ReadBytes = rb
	}
	if statErr != nil && ioErr != nil {
		return snap, fmt.Errorf("obs: stat: %v; io: %v", statErr, ioErr)
	}
	return snap, nil
}

// clockTicksPerSecond is the kernel USER_HZ unit of the stat utime /
// stime fields; 100 on every mainstream Linux configuration.
const clockTicksPerSecond = 100

// ParseProcStat parses a /proc/<pid>/stat line into the CPU and
// major-fault fields. The comm field (2) is parenthesized and may
// contain spaces and parentheses, so fields are counted after the
// *last* ')'. ReadBytes is left zero (it lives in /proc/<pid>/io).
func ParseProcStat(line string) (ProcSnapshot, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return ProcSnapshot{}, fmt.Errorf("obs: /proc stat: no comm field in %q", line)
	}
	// After ") " the next fields are numbered 3 (state) onward; stat(5):
	// majflt is field 12, utime 14, stime 15 → indexes 9, 11, 12 here.
	fields := strings.Fields(line[i+1:])
	if len(fields) < 13 {
		return ProcSnapshot{}, fmt.Errorf("obs: /proc stat: %d fields after comm, need 13", len(fields))
	}
	majflt, err := strconv.ParseInt(fields[9], 10, 64)
	if err != nil {
		return ProcSnapshot{}, fmt.Errorf("obs: /proc stat majflt: %w", err)
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return ProcSnapshot{}, fmt.Errorf("obs: /proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return ProcSnapshot{}, fmt.Errorf("obs: /proc stat stime: %w", err)
	}
	return ProcSnapshot{
		UserSeconds:   float64(utime) / clockTicksPerSecond,
		SystemSeconds: float64(stime) / clockTicksPerSecond,
		MajorFaults:   majflt,
	}, nil
}

// ParseProcIO extracts read_bytes from /proc/<pid>/io content.
func ParseProcIO(content string) (int64, error) {
	for _, line := range strings.Split(content, "\n") {
		if rest, ok := strings.CutPrefix(line, "read_bytes:"); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("obs: /proc io: no read_bytes field")
}

// DiskStat is the subset of one /proc/diskstats row the utilization
// report needs. BusySeconds is the device's io_ticks counter: the
// cumulative wall time the device had at least one request in flight —
// the same "disk busy" the paper's §3.1 iostat study reports.
type DiskStat struct {
	Device      string
	ReadIOs     uint64
	WriteIOs    uint64
	BusySeconds float64
}

// DiskSnapshot maps device name -> cumulative counters.
type DiskSnapshot map[string]DiskStat

// ReadDisks reads /proc/diskstats. Loop and ram pseudo-devices are
// skipped; partitions are kept (callers usually want Busiest anyway).
func ReadDisks() (DiskSnapshot, error) {
	b, err := os.ReadFile("/proc/diskstats")
	if err != nil {
		return nil, err
	}
	return ParseDiskstats(string(b))
}

// ParseDiskstats parses /proc/diskstats content. Per the kernel's
// admin guide ("I/O statistics fields") the fields after major, minor
// and device name are: reads completed, reads merged, sectors read,
// ms reading, writes completed, writes merged, sectors written,
// ms writing, ios in progress, ms doing I/O (io_ticks), ...
func ParseDiskstats(content string) (DiskSnapshot, error) {
	snap := make(DiskSnapshot)
	for _, line := range strings.Split(content, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 13 {
			continue
		}
		dev := fields[2]
		if strings.HasPrefix(dev, "loop") || strings.HasPrefix(dev, "ram") {
			continue
		}
		reads, err1 := strconv.ParseUint(fields[3], 10, 64)
		writes, err2 := strconv.ParseUint(fields[7], 10, 64)
		ioTicksMs, err3 := strconv.ParseUint(fields[12], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("obs: /proc diskstats: bad counters for %s", dev)
		}
		snap[dev] = DiskStat{
			Device:      dev,
			ReadIOs:     reads,
			WriteIOs:    writes,
			BusySeconds: float64(ioTicksMs) / 1000,
		}
	}
	return snap, nil
}

// Sub returns the per-device delta d - earlier for devices present in
// both snapshots.
func (d DiskSnapshot) Sub(earlier DiskSnapshot) DiskSnapshot {
	out := make(DiskSnapshot, len(d))
	for name, cur := range d {
		prev, ok := earlier[name]
		if !ok {
			continue
		}
		out[name] = DiskStat{
			Device:      name,
			ReadIOs:     cur.ReadIOs - prev.ReadIOs,
			WriteIOs:    cur.WriteIOs - prev.WriteIOs,
			BusySeconds: cur.BusySeconds - prev.BusySeconds,
		}
	}
	return out
}

// Busiest returns the device with the most busy time in the snapshot
// (useful on a delta to find the disk that served an out-of-core
// run). Returns the zero DiskStat when the snapshot is empty.
func (d DiskSnapshot) Busiest() DiskStat {
	var best DiskStat
	for _, s := range d {
		if s.BusySeconds > best.BusySeconds ||
			//m3vet:allow floateq -- tie-break for a stable device choice: exact ties only
			(s.BusySeconds == best.BusySeconds && (best.Device == "" || s.Device < best.Device)) {
			best = s
		}
	}
	return best
}

// Utilization summarizes an interval the way the paper's §3.1 study
// does: how busy were the CPU and the disk while the run was going.
type Utilization struct {
	ElapsedSeconds float64
	CPUSeconds     float64
	DiskSeconds    float64
}

// CPUPercent is CPU busy time over wall time, in percent. May exceed
// 100 on multi-core runs.
func (u Utilization) CPUPercent() float64 {
	if u.ElapsedSeconds == 0 {
		return 0
	}
	return 100 * u.CPUSeconds / u.ElapsedSeconds
}

// DiskPercent is disk busy time over wall time, in percent.
func (u Utilization) DiskPercent() float64 {
	if u.ElapsedSeconds == 0 {
		return 0
	}
	return 100 * u.DiskSeconds / u.ElapsedSeconds
}

// IOBound reports whether the interval looks like the paper's
// out-of-core profile (§3.1): the disk near saturation and clearly
// busier than the CPU.
func (u Utilization) IOBound() bool {
	return u.DiskPercent() > 90 && u.DiskPercent() > u.CPUPercent()
}

// String renders the report in the paper's terms.
func (u Utilization) String() string {
	return fmt.Sprintf("elapsed %.1fs, disk %.0f%% utilized, CPU %.0f%%",
		u.ElapsedSeconds, u.DiskPercent(), u.CPUPercent())
}

// ProcCollector returns a Collector emitting the process /proc
// counters (CPU seconds, read bytes, major faults). Registered on the
// Default registry; emits nothing when /proc is unavailable.
func ProcCollector() Collector {
	return func(emit func(Metric)) {
		s, err := ReadProc()
		if err != nil {
			return
		}
		emit(Metric{Name: "m3_process_user_cpu_seconds_total",
			Help: "Process CPU time spent in user mode.", Type: TypeCounter, Value: s.UserSeconds})
		emit(Metric{Name: "m3_process_system_cpu_seconds_total",
			Help: "Process CPU time spent in kernel mode.", Type: TypeCounter, Value: s.SystemSeconds})
		emit(Metric{Name: "m3_process_read_bytes_total",
			Help: "Bytes the process caused to be fetched from storage.", Type: TypeCounter, Value: float64(s.ReadBytes)})
		emit(Metric{Name: "m3_process_major_faults_total",
			Help: "Major page faults (faults that required disk I/O).", Type: TypeCounter, Value: float64(s.MajorFaults)})
	}
}
