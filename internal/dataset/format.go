// Package dataset defines the on-disk format M3 datasets use and
// streaming reader/writer implementations.
//
// Layout of a .m3 file:
//
//	offset 0      header page (4096 bytes, little-endian):
//	               [0:8)   magic "M3DSET1\n"
//	               [8:12)  format version (uint32, currently 1)
//	               [12:16) flags (uint32; bit 0 = labels present)
//	               [16:24) rows (int64)
//	               [24:32) cols (int64)
//	               [32:40) CRC64/ECMA of the payload (uint64; 0 = unset)
//	               rest    zero padding
//	offset 4096   X payload: rows*cols float64, row-major
//	then          labels: rows float64 (only if flag bit 0)
//
// The header occupies exactly one page so the payload begins
// page-aligned: a Dataset can therefore be memory-mapped and handed
// to algorithms without any copying or parsing — the property M3
// depends on.
package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"unsafe"
)

// Magic identifies an M3 dataset file.
const Magic = "M3DSET1\n"

// HeaderSize is the page-aligned header length in bytes.
const HeaderSize = 4096

// Version is the current format version.
const Version = 1

// flag bits
const flagLabels = 1 << 0

var crcTable = crc64.MakeTable(crc64.ECMA)

// Header describes a dataset file.
type Header struct {
	Rows      int64
	Cols      int64
	HasLabels bool
	// Checksum is the CRC64/ECMA of the payload (X then labels);
	// zero means the writer did not record one.
	Checksum uint64
}

// DataBytes returns the X payload size in bytes.
func (h Header) DataBytes() int64 { return h.Rows * h.Cols * 8 }

// LabelBytes returns the label payload size in bytes.
func (h Header) LabelBytes() int64 {
	if !h.HasLabels {
		return 0
	}
	return h.Rows * 8
}

// FileSize returns the total file size implied by the header.
func (h Header) FileSize() int64 { return HeaderSize + h.DataBytes() + h.LabelBytes() }

// Validate checks internal consistency.
func (h Header) Validate() error {
	if h.Rows <= 0 || h.Cols <= 0 {
		return fmt.Errorf("dataset: non-positive dimensions %dx%d", h.Rows, h.Cols)
	}
	// The whole file — header page, X and a label per row — must be
	// addressable: HeaderSize + 8·Rows·(Cols+1) <= MaxInt64.
	const maxValues = (math.MaxInt64 - HeaderSize) / 8
	if h.Cols >= maxValues || h.Rows > maxValues/(h.Cols+1) {
		return fmt.Errorf("dataset: %dx%d overflows", h.Rows, h.Cols)
	}
	return nil
}

// marshal encodes the header into a HeaderSize-byte page.
func (h Header) marshal() []byte {
	b := make([]byte, HeaderSize)
	copy(b, Magic)
	binary.LittleEndian.PutUint32(b[8:], Version)
	var flags uint32
	if h.HasLabels {
		flags |= flagLabels
	}
	binary.LittleEndian.PutUint32(b[12:], flags)
	binary.LittleEndian.PutUint64(b[16:], uint64(h.Rows))
	binary.LittleEndian.PutUint64(b[24:], uint64(h.Cols))
	binary.LittleEndian.PutUint64(b[32:], h.Checksum)
	return b
}

// parseHeader decodes and validates a header page.
func parseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("dataset: truncated header (%d bytes)", len(b))
	}
	if string(b[:8]) != Magic {
		return Header{}, fmt.Errorf("dataset: bad magic %q", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != Version {
		return Header{}, fmt.Errorf("dataset: unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint32(b[12:])
	h := Header{
		Rows:      int64(binary.LittleEndian.Uint64(b[16:])),
		Cols:      int64(binary.LittleEndian.Uint64(b[24:])),
		HasLabels: flags&flagLabels != 0,
		Checksum:  binary.LittleEndian.Uint64(b[32:]),
	}
	if err := h.Validate(); err != nil {
		return Header{}, err
	}
	return h, nil
}

// hostLittleEndian reports whether a float64 in memory already has the
// file's byte order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views fs as its bytes in memory, the way
// mmap.Region.Float64 views a mapping's bytes as floats.
func floatBytes(fs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(fs))), len(fs)*8)
}

// appendFloats appends the little-endian encoding of fs to b.
func appendFloats(b []byte, fs []float64) []byte {
	for _, v := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// readFloats fills dst from r's little-endian stream: straight into
// dst's memory on a little-endian host, through decodeFloats otherwise.
func readFloats(r io.Reader, dst []float64) error {
	if hostLittleEndian {
		_, err := io.ReadFull(r, floatBytes(dst))
		return err
	}
	return decodeFloats(r, dst)
}

// decodeFloats is readFloats for any host: it decodes value by value
// through a bounce buffer.
func decodeFloats(r io.Reader, dst []float64) error {
	buf := make([]byte, 1<<16)
	for len(dst) > 0 {
		n := min(len(buf)/8, len(dst))
		if _, err := io.ReadFull(r, buf[:n*8]); err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		dst = dst[n:]
	}
	return nil
}
