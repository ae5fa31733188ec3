package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
)

// Writer streams a dataset to disk in blocks of rows, so arbitrarily
// large files can be produced with constant memory — the tool that
// builds the paper's 190 GB Infimnist file works this way.
type Writer struct {
	f *os.File
	// buf coalesces the importers' single-row writes; a block larger
	// than it passes through to the file uncopied.
	buf     *bufio.Writer
	path    string
	hdr     Header
	crc     uint64
	written int64 // rows written
	labels  []float64
	scratch []byte // encoding buffer of big-endian hosts
	closed  bool
}

// Create starts a new dataset file with the given shape. If hasLabels
// is true, every written row must come with a label and the label
// block is appended after the matrix payload at Close.
func Create(path string, rows, cols int64, hasLabels bool) (*Writer, error) {
	hdr := Header{Rows: rows, Cols: cols, HasLabels: hasLabels}
	if err := hdr.Validate(); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, buf: bufio.NewWriterSize(f, 64<<10), path: path, hdr: hdr}
	if hasLabels {
		w.labels = make([]float64, 0, rows)
	}
	// Reserve the header page; the final header (with checksum) is
	// rewritten at Close.
	if _, err := f.Write(hdr.marshal()); err != nil {
		return nil, errors.Join(err, w.Abort())
	}
	return w, nil
}

// WriteRow appends one feature row (and its label when the dataset
// has labels; pass 0 otherwise — it is ignored).
func (w *Writer) WriteRow(row []float64, label float64) error {
	if int64(len(row)) != w.hdr.Cols {
		return fmt.Errorf("dataset: row of %d values, want %d", len(row), w.hdr.Cols)
	}
	return w.WriteRows(row, []float64{label})
}

// WriteRows appends a block of whole rows, row-major, encoded,
// checksummed and written as one piece. labels holds one label per row
// when the dataset has labels and is ignored otherwise. A rejected
// block writes nothing.
func (w *Writer) WriteRows(block, labels []float64) error {
	if w.closed {
		return fmt.Errorf("dataset: writer closed")
	}
	n := int64(len(block)) / w.hdr.Cols
	if len(block) == 0 || n*w.hdr.Cols != int64(len(block)) {
		return fmt.Errorf("dataset: block of %d values is not whole rows of %d", len(block), w.hdr.Cols)
	}
	if n > w.hdr.Rows-w.written {
		return fmt.Errorf("dataset: too many rows (declared %d)", w.hdr.Rows)
	}
	if w.hdr.HasLabels && int64(len(labels)) != n {
		return fmt.Errorf("dataset: %d labels for %d rows", len(labels), n)
	}
	if err := w.write(block); err != nil {
		return err
	}
	if w.hdr.HasLabels {
		w.labels = append(w.labels, labels...)
	}
	w.written += n
	return nil
}

// write appends the encoding of fs to the payload and the checksum: on
// a little-endian host that is fs's own memory.
func (w *Writer) write(fs []float64) error {
	b := floatBytes(fs)
	if !hostLittleEndian {
		w.scratch = appendFloats(w.scratch[:0], fs)
		b = w.scratch
	}
	w.crc = crc64.Update(w.crc, crcTable, b)
	_, err := w.buf.Write(b)
	return err
}

// Close flushes the payload, appends labels, rewrites the header with
// the payload checksum, and closes the file. It fails if fewer rows
// than declared were written; a failed Close removes the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if err := w.finish(); err != nil {
		return errors.Join(err, w.Abort())
	}
	w.closed = true
	return w.f.Close()
}

func (w *Writer) finish() error {
	if w.written != w.hdr.Rows {
		return fmt.Errorf("dataset: wrote %d of %d declared rows", w.written, w.hdr.Rows)
	}
	if err := w.write(w.labels); err != nil {
		return err
	}
	if err := w.buf.Flush(); err != nil {
		return err
	}
	w.hdr.Checksum = w.crc
	_, err := w.f.WriteAt(w.hdr.marshal(), 0)
	return err
}

// Abort gives up on the file: it closes the descriptor and removes
// what was written, so a failed producer never leaves a partial
// dataset (whose zero checksum would verify trivially) behind. It is a
// no-op on a closed writer.
func (w *Writer) Abort() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return errors.Join(w.f.Close(), os.Remove(w.path))
}

// WriteMatrix writes an in-memory row-major matrix (and optional
// labels, which may be nil) in one call.
func WriteMatrix(path string, data []float64, rows, cols int64, labels []float64) error {
	if int64(len(data)) != rows*cols {
		return fmt.Errorf("dataset: data length %d != %d*%d", len(data), rows, cols)
	}
	hasLabels := labels != nil
	if hasLabels && int64(len(labels)) != rows {
		return fmt.Errorf("dataset: %d labels for %d rows", len(labels), rows)
	}
	w, err := Create(path, rows, cols, hasLabels)
	if err != nil {
		return err
	}
	if err := w.WriteRows(data, labels); err != nil {
		return errors.Join(err, w.Abort())
	}
	return w.Close()
}
