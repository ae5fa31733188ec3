package dataset

import (
	"fmt"
	"hash/crc64"
	"io"
	"os"

	"m3/internal/mat"
	"m3/internal/mmap"
	"m3/internal/store"
)

// Dataset is an opened dataset file whose payload is memory-mapped —
// opening a 190 GB file costs one header read and one mmap call, and
// pages materialize only as algorithms touch them.
type Dataset struct {
	Header
	region *mmap.Region
	x      []float64
	labels []float64
	path   string
}

// openChecked opens a dataset file, positioned at its payload, whose
// header the file is long enough to honour — nothing may be sized from
// a header before that is known.
func openChecked(path string) (_ *os.File, _ Header, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Header{}, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	hdrPage := make([]byte, HeaderSize)
	if _, err := io.ReadFull(f, hdrPage); err != nil {
		return nil, Header{}, fmt.Errorf("dataset: reading header of %q: %w", path, err)
	}
	hdr, err := parseHeader(hdrPage)
	if err != nil {
		return nil, Header{}, fmt.Errorf("dataset: %q: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, Header{}, err
	}
	if fi.Size() < hdr.FileSize() {
		return nil, Header{}, fmt.Errorf("dataset: %q truncated: %d bytes, header implies %d", path, fi.Size(), hdr.FileSize())
	}
	return f, hdr, nil
}

// Open memory-maps a dataset file read-only.
func Open(path string) (*Dataset, error) {
	f, hdr, err := openChecked(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	region, err := mmap.Map(f, 0, int(hdr.FileSize()), false)
	if err != nil {
		return nil, err
	}
	all, err := region.Float64()
	if err != nil {
		region.Unmap()
		return nil, err
	}
	headerElems := HeaderSize / 8
	n := hdr.Rows * hdr.Cols
	d := &Dataset{
		Header: hdr,
		region: region,
		x:      all[headerElems : headerElems+int(n)],
		path:   path,
	}
	if hdr.HasLabels {
		d.labels = all[headerElems+int(n) : headerElems+int(n)+int(hdr.Rows)]
	}
	return d, nil
}

// X returns the feature matrix as a view over the mapping, backed by
// a mapped store so the parallel execution layer sees the real
// backend (concurrent-safe accounting, WillNeed block prefetch) —
// not a heap facade.
func (d *Dataset) X() *mat.Dense {
	s := store.ViewMapped(d.region, d.x, HeaderSize)
	m, err := mat.NewDenseStore(s, int(d.Rows), int(d.Cols))
	if err != nil {
		// Unreachable: the view is sized exactly Rows*Cols.
		return mat.NewDenseFrom(d.x, int(d.Rows), int(d.Cols))
	}
	return m
}

// RawX returns the mapped feature payload.
func (d *Dataset) RawX() []float64 { return d.x }

// Labels returns the mapped label vector, or nil if absent.
func (d *Dataset) Labels() []float64 { return d.labels }

// Path returns the file path.
func (d *Dataset) Path() string { return d.path }

// Advise forwards an access-pattern hint for the whole mapping.
func (d *Dataset) Advise(a mmap.Advice) error { return d.region.Advise(a) }

// Region exposes the underlying mapping.
func (d *Dataset) Region() *mmap.Region { return d.region }

// Close unmaps the file.
func (d *Dataset) Close() error {
	d.x, d.labels = nil, nil
	return d.region.Unmap()
}

// ReadAll loads an entire dataset into heap memory — the "Original"
// path of Table 1, feasible only when the data fits in RAM.
func ReadAll(path string) (x []float64, labels []float64, hdr Header, err error) {
	f, hdr, err := openChecked(path)
	if err != nil {
		return nil, nil, Header{}, err
	}
	defer f.Close()
	x = make([]float64, hdr.Rows*hdr.Cols)
	if err := readFloats(f, x); err != nil {
		return nil, nil, Header{}, fmt.Errorf("dataset: reading payload of %q: %w", path, err)
	}
	if hdr.HasLabels {
		labels = make([]float64, hdr.Rows)
		if err := readFloats(f, labels); err != nil {
			return nil, nil, Header{}, fmt.Errorf("dataset: reading labels of %q: %w", path, err)
		}
	}
	return x, labels, hdr, nil
}

// Verify recomputes the payload checksum of an open dataset and
// compares it to the recorded one. A zero recorded checksum verifies
// trivially.
func (d *Dataset) Verify() error {
	if d.Checksum == 0 {
		return nil
	}
	// X and the labels are contiguous in the file, as in the checksum.
	crc := crc64.Update(0, crcTable, d.region.Bytes()[HeaderSize:d.FileSize()])
	if crc != d.Checksum {
		return fmt.Errorf("dataset: checksum mismatch: file records %#x, payload hashes to %#x", d.Checksum, crc)
	}
	return nil
}
