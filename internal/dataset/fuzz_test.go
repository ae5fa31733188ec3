package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseHeader ensures arbitrary header bytes never panic and
// that accepted headers are internally consistent.
func FuzzParseHeader(f *testing.F) {
	f.Add(Header{Rows: 1, Cols: 1}.marshal())
	f.Add(Header{Rows: 1 << 40, Cols: 784, HasLabels: true, Checksum: 7}.marshal())
	f.Add(bytes.Repeat([]byte{0xff}, HeaderSize))
	f.Add([]byte("M3DSET1\n garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseHeader(data)
		if err != nil {
			return
		}
		if h.Rows <= 0 || h.Cols <= 0 {
			t.Fatalf("accepted invalid dims %dx%d", h.Rows, h.Cols)
		}
		if h.FileSize() < HeaderSize {
			t.Fatalf("file size %d below header", h.FileSize())
		}
		// Round trip must be stable.
		h2, err := parseHeader(h.marshal())
		if err != nil || h2 != h {
			t.Fatalf("round trip changed header: %+v -> %+v (%v)", h, h2, err)
		}
	})
}

// FuzzParseLibSVMLine ensures arbitrary record text never panics and
// that accepted records have valid indices.
func FuzzParseLibSVMLine(f *testing.F) {
	f.Add("1 1:0.5 3:2")
	f.Add("0")
	f.Add("-1 2:1e300")
	f.Add("x y:z")
	f.Add("1 0:1")
	f.Add("1 :5")
	f.Fuzz(func(t *testing.T, line string) {
		label, feats, err := parseLibSVMLine(line)
		if err != nil {
			return
		}
		_ = label
		for _, fv := range feats {
			if fv.idx < 1 {
				t.Fatalf("accepted index %d", fv.idx)
			}
		}
	})
}

// fileCorpus seeds the fuzzers that take a whole file.
func fileCorpus(f *testing.F) {
	good := Header{Rows: 2, Cols: 2}.marshal()
	good = append(good, make([]byte, 32)...)
	f.Add(good)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, HeaderSize+7))
}

// FuzzOpen ensures arbitrary file contents never panic Open.
func FuzzOpen(f *testing.F) {
	fileCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.m3")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		d, err := Open(path)
		if err != nil {
			return
		}
		// Opened successfully: views must be in bounds.
		if int64(len(d.RawX())) != d.Rows*d.Cols {
			t.Fatalf("payload view %d for %dx%d", len(d.RawX()), d.Rows, d.Cols)
		}
		d.Close()
	})
}

// FuzzReadAll ensures arbitrary file contents never panic ReadAll nor
// make it allocate beyond the file: what it returns is what the file
// holds.
func FuzzReadAll(f *testing.F) {
	fileCorpus(f)
	labelled := Header{Rows: 3, Cols: 2, HasLabels: true}.marshal()
	f.Add(append(labelled, make([]byte, 9*8)...))
	f.Add(append(Header{Rows: 1 << 31, Cols: 1}.marshal(), 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.m3")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		x, labels, hdr, err := ReadAll(path)
		if err != nil {
			return
		}
		if int64(len(x)) != hdr.Rows*hdr.Cols || hdr.FileSize() > int64(len(data)) {
			t.Fatalf("read %d values as %dx%d from %d bytes", len(x), hdr.Rows, hdr.Cols, len(data))
		}
		if hdr.HasLabels != (labels != nil) || (hdr.HasLabels && int64(len(labels)) != hdr.Rows) {
			t.Fatalf("%d labels for %+v", len(labels), hdr)
		}
	})
}
