package obs

import (
	"strings"
	"testing"
)

// A realistic stat line whose comm contains spaces and parentheses —
// the case that breaks naive strings.Fields parsing. Fields after the
// last ')': state ppid pgrp session tty tpgid flags minflt cminflt
// majflt cmajflt utime stime → majflt=9, utime=250, stime=50.
const statFixture = `42 (m3 train (v2)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 8 0 12345 67890`

func TestParseProcStat(t *testing.T) {
	s, err := ParseProcStat(statFixture)
	if err != nil {
		t.Fatal(err)
	}
	if s.MajorFaults != 9 {
		t.Errorf("MajorFaults = %d, want 9", s.MajorFaults)
	}
	if s.UserSeconds != 2.5 {
		t.Errorf("UserSeconds = %v, want 2.5 (250 ticks at USER_HZ=100)", s.UserSeconds)
	}
	if s.SystemSeconds != 0.5 {
		t.Errorf("SystemSeconds = %v, want 0.5", s.SystemSeconds)
	}
	if s.ReadBytes != 0 {
		t.Errorf("ReadBytes = %d, want 0 (stat does not carry it)", s.ReadBytes)
	}
}

func TestParseProcStatMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"42 no-comm-parens S 1 2",
		"42 (x) S 1 2 3", // too few fields
		"42 (x) S 1 2 3 4 5 6 7 8 NaN 10 250 50 0", // non-numeric majflt
	} {
		if _, err := ParseProcStat(bad); err == nil {
			t.Errorf("ParseProcStat(%q) = nil error, want failure", bad)
		}
	}
}

func TestParseProcIO(t *testing.T) {
	fixture := "rchar: 100\nwchar: 200\nsyscr: 3\nsyscw: 4\nread_bytes: 4096\nwrite_bytes: 8192\n"
	rb, err := ParseProcIO(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if rb != 4096 {
		t.Errorf("read_bytes = %d, want 4096", rb)
	}
	if _, err := ParseProcIO("rchar: 100\n"); err == nil {
		t.Error("missing read_bytes should be an error")
	}
}

const diskstatsFixture = `   8       0 sda 1000 5 2000 300 500 2 4000 100 0 7000 400
   8       1 sda1 900 4 1800 280 450 1 3600 90 0 6500 370
   7       0 loop0 50 0 100 10 0 0 0 0 0 20 10
   1       0 ram0 10 0 20 1 0 0 0 0 0 5 2
 259       0 nvme0n1 8000 10 90000 600 100 0 800 50 0 1500 650
   8      16 sdb bad counters here x x x x x x x x
short line`

func TestParseDiskstats(t *testing.T) {
	snap, err := ParseDiskstats(diskstatsFixture)
	if err == nil {
		t.Fatal("bad counters row should surface as an error")
	}
	// With the corrupt row removed the rest parses.
	clean := strings.ReplaceAll(diskstatsFixture,
		"   8      16 sdb bad counters here x x x x x x x x\n", "")
	snap, err = ParseDiskstats(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, skipped := range []string{"loop0", "ram0"} {
		if _, ok := snap[skipped]; ok {
			t.Errorf("%s should be skipped as a pseudo-device", skipped)
		}
	}
	sda, ok := snap["sda"]
	if !ok {
		t.Fatal("sda missing")
	}
	if sda.ReadIOs != 1000 || sda.WriteIOs != 500 {
		t.Errorf("sda IOs = %d/%d, want 1000/500", sda.ReadIOs, sda.WriteIOs)
	}
	if sda.BusySeconds != 7.0 {
		t.Errorf("sda busy = %v s, want 7.0 (7000 ms io_ticks)", sda.BusySeconds)
	}
	if _, ok := snap["sda1"]; !ok {
		t.Error("partitions should be kept")
	}
}

func TestDiskSnapshotSubAndBusiest(t *testing.T) {
	before := DiskSnapshot{
		"sda":  {Device: "sda", ReadIOs: 100, WriteIOs: 10, BusySeconds: 1},
		"gone": {Device: "gone", ReadIOs: 5},
	}
	after := DiskSnapshot{
		"sda": {Device: "sda", ReadIOs: 400, WriteIOs: 30, BusySeconds: 9},
		"new": {Device: "new", ReadIOs: 7, BusySeconds: 2},
	}
	d := after.Sub(before)
	if _, ok := d["new"]; ok {
		t.Error("device absent from earlier snapshot should be dropped")
	}
	if got := d["sda"]; got.ReadIOs != 300 || got.WriteIOs != 20 || got.BusySeconds != 8 {
		t.Errorf("sda delta = %+v, want 300/20/8", got)
	}
	if b := d.Busiest(); b.Device != "sda" {
		t.Errorf("Busiest = %q, want sda", b.Device)
	}
	// Ties break toward the lexicographically smaller device name.
	tie := DiskSnapshot{
		"zzz": {Device: "zzz", BusySeconds: 3},
		"aaa": {Device: "aaa", BusySeconds: 3},
	}
	if b := tie.Busiest(); b.Device != "aaa" {
		t.Errorf("tie Busiest = %q, want aaa", b.Device)
	}
	if b := (DiskSnapshot{}).Busiest(); b.Device != "" {
		t.Errorf("empty Busiest = %+v, want zero value", b)
	}
}

// ReadProc against the live /proc: counters must be non-negative and
// monotonic across a delta.
func TestReadProcSmoke(t *testing.T) {
	before, err := ReadProc()
	if err != nil {
		t.Skipf("/proc unavailable: %v", err)
	}
	// Burn a little CPU so the delta has a chance to move.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i)
	}
	_ = x
	after, err := ReadProc()
	if err != nil {
		t.Fatal(err)
	}
	d := after.Sub(before)
	if d.UserSeconds < 0 || d.SystemSeconds < 0 || d.ReadBytes < 0 || d.MajorFaults < 0 {
		t.Errorf("counters went backwards: %+v", d)
	}
}

func TestUtilizationPercents(t *testing.T) {
	u := Utilization{ElapsedSeconds: 100, CPUSeconds: 13, DiskSeconds: 100}
	if got := u.CPUPercent(); got != 13 {
		t.Errorf("CPU%% = %v", got)
	}
	if got := u.DiskPercent(); got != 100 {
		t.Errorf("Disk%% = %v", got)
	}
	if !u.IOBound() {
		t.Error("paper's observed profile not classified as I/O bound")
	}
	var zero Utilization
	if zero.CPUPercent() != 0 || zero.DiskPercent() != 0 || zero.IOBound() {
		t.Error("zero utilization misbehaves")
	}
}

func TestUtilizationNotIOBound(t *testing.T) {
	u := Utilization{ElapsedSeconds: 100, CPUSeconds: 100, DiskSeconds: 20}
	if u.IOBound() {
		t.Error("CPU-bound phase classified as I/O bound")
	}
}

func TestProcCollectorEmitsCounters(t *testing.T) {
	if _, err := ReadProc(); err != nil {
		t.Skipf("/proc unavailable: %v", err)
	}
	var names []string
	ProcCollector()(func(m Metric) { names = append(names, m.Name) })
	want := map[string]bool{
		"m3_process_user_cpu_seconds_total":   true,
		"m3_process_system_cpu_seconds_total": true,
		"m3_process_read_bytes_total":         true,
		"m3_process_major_faults_total":       true,
	}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("collector missing %v (got %v)", want, names)
	}
}
