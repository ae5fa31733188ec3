package dataset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"m3/internal/mmap"
	"m3/internal/store"
)

func tmpPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Rows: 123, Cols: 456, HasLabels: true, Checksum: 0xdeadbeef}
	got, err := parseHeader(h.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip: %+v != %+v", got, h)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	good := Header{Rows: 1, Cols: 1}.marshal()

	short := good[:100]
	if _, err := parseHeader(short); err == nil {
		t.Error("accepted short header")
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	if _, err := parseHeader(badMagic); err == nil {
		t.Error("accepted bad magic")
	}

	badVer := append([]byte(nil), good...)
	badVer[8] = 99
	if _, err := parseHeader(badVer); err == nil {
		t.Error("accepted bad version")
	}

	zeroRows := Header{Rows: 0, Cols: 5}
	if _, err := parseHeader(zeroRows.marshal()); err == nil {
		t.Error("accepted zero rows")
	}
}

func TestHeaderSizes(t *testing.T) {
	h := Header{Rows: 10, Cols: 4, HasLabels: true}
	if h.DataBytes() != 320 {
		t.Errorf("DataBytes = %d", h.DataBytes())
	}
	if h.LabelBytes() != 80 {
		t.Errorf("LabelBytes = %d", h.LabelBytes())
	}
	if h.FileSize() != HeaderSize+400 {
		t.Errorf("FileSize = %d", h.FileSize())
	}
	h.HasLabels = false
	if h.LabelBytes() != 0 {
		t.Errorf("LabelBytes without labels = %d", h.LabelBytes())
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	path := tmpPath(t, "rt.m3")
	data := make([]float64, 20)
	labels := make([]float64, 5)
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	for i := range labels {
		labels[i] = float64(i % 2)
	}
	if err := WriteMatrix(path, data, 5, 4, labels); err != nil {
		t.Fatal(err)
	}

	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Rows != 5 || d.Cols != 4 || !d.HasLabels {
		t.Fatalf("header = %+v", d.Header)
	}
	for i, v := range d.RawX() {
		if v != float64(i)*0.5 {
			t.Fatalf("x[%d] = %v", i, v)
		}
	}
	for i, v := range d.Labels() {
		if v != float64(i%2) {
			t.Fatalf("label[%d] = %v", i, v)
		}
	}
	if err := d.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	m := d.X()
	if m.Rows() != 5 || m.Cols() != 4 {
		t.Errorf("X dims %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 3) != data[11] {
		t.Errorf("X(2,3) = %v want %v", m.At(2, 3), data[11])
	}
}

func TestWriteMatrixNoLabels(t *testing.T) {
	path := tmpPath(t, "nl.m3")
	if err := WriteMatrix(path, []float64{1, 2, 3, 4}, 2, 2, nil); err != nil {
		t.Fatal(err)
	}
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.HasLabels || d.Labels() != nil {
		t.Error("labels unexpectedly present")
	}
}

func TestWriterRowValidation(t *testing.T) {
	path := tmpPath(t, "v.m3")
	w, err := Create(path, 2, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow([]float64{1, 2}, 0); err == nil {
		t.Error("accepted short row")
	}
	if err := w.WriteRow([]float64{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	// Close with missing rows must fail.
	if err := w.Close(); err == nil {
		t.Error("Close accepted missing rows")
	}
}

func TestWriterTooManyRows(t *testing.T) {
	w, err := Create(tmpPath(t, "o.m3"), 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow([]float64{1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow([]float64{2}, 0); err == nil {
		t.Error("accepted extra row")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Writing after close fails; double close is fine.
	if err := w.WriteRow([]float64{3}, 0); err == nil {
		t.Error("write after close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	path := tmpPath(t, "tr.m3")
	if err := WriteMatrix(path, []float64{1, 2, 3, 4}, 2, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, HeaderSize+8); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("opened truncated file")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := tmpPath(t, "g.m3")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xff}, HeaderSize*2), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("opened garbage file")
	}
	if _, err := Open(tmpPath(t, "missing.m3")); err == nil {
		t.Error("opened missing file")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	path := tmpPath(t, "c.m3")
	if err := WriteMatrix(path, []float64{1, 2, 3, 4}, 2, 2, nil); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x42}, HeaderSize+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Verify(); err == nil {
		t.Error("Verify missed corruption")
	}
}

func TestReadAll(t *testing.T) {
	path := tmpPath(t, "ra.m3")
	data := []float64{1, 2, 3, 4, 5, 6}
	labels := []float64{0, 1}
	if err := WriteMatrix(path, data, 2, 3, labels); err != nil {
		t.Fatal(err)
	}
	x, got, hdr, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Rows != 2 || hdr.Cols != 3 {
		t.Fatalf("hdr %+v", hdr)
	}
	for i := range data {
		if x[i] != data[i] {
			t.Fatalf("x[%d] = %v", i, x[i])
		}
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatalf("labels[%d] = %v", i, got[i])
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	csvPath := tmpPath(t, "in.csv")
	csvData := "1,2,0\n3,4,1\n5.5,6.5,0\n"
	if err := os.WriteFile(csvPath, []byte(csvData), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := tmpPath(t, "out.m3")
	if err := ImportCSV(csvPath, outPath, true); err != nil {
		t.Fatal(err)
	}
	d, err := Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Rows != 3 || d.Cols != 2 || !d.HasLabels {
		t.Fatalf("imported header %+v", d.Header)
	}
	if d.RawX()[4] != 5.5 || d.Labels()[1] != 1 {
		t.Errorf("imported values wrong: %v %v", d.RawX(), d.Labels())
	}

	var buf bytes.Buffer
	if err := d.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != csvData {
		t.Errorf("ExportCSV = %q want %q", got, csvData)
	}
}

func TestImportCSVErrors(t *testing.T) {
	empty := tmpPath(t, "e.csv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ImportCSV(empty, tmpPath(t, "e.m3"), false); err == nil {
		t.Error("imported empty csv")
	}

	bad := tmpPath(t, "b.csv")
	if err := os.WriteFile(bad, []byte("1,hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ImportCSV(bad, tmpPath(t, "b.m3"), false); err == nil {
		t.Error("imported non-numeric csv")
	}
	if err := ImportCSV(bad, tmpPath(t, "b2.m3"), true); err == nil ||
		!strings.Contains(err.Error(), "bad number") {
		t.Errorf("label import error = %v", err)
	}

	one := tmpPath(t, "one.csv")
	if err := os.WriteFile(one, []byte("1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ImportCSV(one, tmpPath(t, "one.m3"), true); err == nil {
		t.Error("accepted 1-column csv with labelLast")
	}
}

func TestLargeSparseDatasetOpens(t *testing.T) {
	// A dataset much larger than this test's heap usage must open
	// instantly because Open maps rather than reads.
	path := tmpPath(t, "big.m3")
	const rows, cols = 1 << 17, 128 // 128 MiB payload
	w, err := Create(path, rows, cols, false)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, cols)
	for i := 0; i < rows; i++ {
		row[0] = float64(i)
		if err := w.WriteRow(row, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Spot-check a few rows without scanning everything.
	m := d.X()
	for _, i := range []int{0, 1, rows / 2, rows - 1} {
		if got := m.At(i, 0); got != float64(i) {
			t.Errorf("row %d marker = %v", i, got)
		}
	}
}

// TestMappedDatasetSupportsParallelLayer: the matrix returned by
// Dataset.X must expose the real mapped backend — ranged advice — so
// the chunked-execution layer prefetches on the Engine's mmap training
// path instead of silently degrading to a heap facade.
func TestMappedDatasetSupportsParallelLayer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.m3")
	data := make([]float64, 6*4)
	for i := range data {
		data[i] = float64(i)
	}
	if err := WriteMatrix(path, data, 6, 4, nil); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	x := ds.X()
	s := x.Store()
	ra, ok := s.(store.RangeAdviser)
	if !ok {
		t.Fatal("mapped dataset store has no AdviseRange; block prefetch is dead")
	}
	if err := ra.AdviseRange(mmap.WillNeed, 0, 8); err != nil {
		t.Errorf("AdviseRange: %v", err)
	}
	// The view must still read the payload, not the header.
	if got := x.At(0, 0); got != 0 {
		t.Errorf("x[0,0] = %v, want 0", got)
	}
	if got := x.At(5, 3); got != 23 {
		t.Errorf("x[5,3] = %v, want 23", got)
	}
	// Closing the matrix's store must not unmap the dataset.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ds.RawX()[1]; got != 1 {
		t.Errorf("dataset unmapped by view close: %v", got)
	}
}

// lyingHeader writes a file of one header page plus extra payload
// bytes whose header claims rows × cols.
func lyingHeader(t testing.TB, rows, cols int64, labels bool, extra int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "liar.m3")
	b := append(Header{Rows: rows, Cols: cols, HasLabels: labels}.marshal(), make([]byte, extra)...)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadAllLyingHeaderIsCheap: a 4 KiB file whose header claims
// 16 GiB is refused by its size, before anything is allocated for it —
// it used to end the process with "fatal error: out of memory".
func TestReadAllLyingHeaderIsCheap(t *testing.T) {
	for _, shape := range []struct {
		rows, cols int64
		labels     bool
	}{
		{1 << 31, 1, false},
		{1 << 31, 1, true},
		{1, 1 << 31, false},
		{3, 5, true}, // merely short: 8 bytes of the 144
		// X alone fits in an int64, X plus the label block does not.
		{math.MaxInt64/8 - 600, 1, true},
	} {
		path := lyingHeader(t, shape.rows, shape.cols, shape.labels, 8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := ReadAll(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%+v: read a %d-byte file as %d×%d", shape, HeaderSize+8, shape.rows, shape.cols)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%+v: refusing the file allocated %d bytes, want < 1 MiB", shape, grew)
		}
		if _, err := Open(path); err == nil {
			t.Errorf("%+v: Open mapped the file", shape)
		}
	}
}

// TestVerifyLabelsAndPayload: Verify passes on a written file and
// notices one flipped bit anywhere behind the header — first and last
// payload byte, first and last label byte.
func TestVerifyLabelsAndPayload(t *testing.T) {
	const rows, cols = 37, 11
	data, labels := make([]float64, rows*cols), make([]float64, rows)
	for i := range data {
		data[i] = math.Sqrt(float64(i))
	}
	for i := range labels {
		labels[i] = float64(i % 3)
	}
	hdr := Header{Rows: rows, Cols: cols, HasLabels: true}
	for _, off := range []int64{-1, HeaderSize, HeaderSize + hdr.DataBytes() - 1, HeaderSize + hdr.DataBytes(), hdr.FileSize() - 1} {
		path := tmpPath(t, "v.m3")
		if err := WriteMatrix(path, data, rows, cols, labels); err != nil {
			t.Fatal(err)
		}
		if off >= 0 {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[off] ^= 0x10
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		err = d.Verify()
		d.Close()
		if off < 0 && err != nil {
			t.Errorf("Verify of an intact file: %v", err)
		}
		if off >= 0 && err == nil {
			t.Errorf("Verify missed a flipped bit at offset %d", off)
		}
	}
}

// TestWriteRowsIsWriteRowByRow: blocks of any size, single rows and
// WriteMatrix all produce the same bytes, checksum included.
func TestWriteRowsIsWriteRowByRow(t *testing.T) {
	const rows, cols = 23, 7
	data, labels := make([]float64, rows*cols), make([]float64, rows)
	for i := range data {
		data[i] = math.Sin(float64(i))
	}
	for i := range labels {
		labels[i] = float64(i)
	}
	for _, hasLabels := range []bool{true, false} {
		want := tmpPath(t, "want.m3")
		var l []float64
		if hasLabels {
			l = labels
		}
		if err := WriteMatrix(want, data, rows, cols, l); err != nil {
			t.Fatal(err)
		}
		wantBytes, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range []int{1, 2, 5, rows} {
			path := tmpPath(t, "got.m3")
			w, err := Create(path, rows, cols, hasLabels)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < rows; lo += step {
				hi := min(lo+step, rows)
				if step == 1 {
					err = w.WriteRow(data[lo*cols:hi*cols], labels[lo])
				} else {
					err = w.WriteRows(data[lo*cols:hi*cols], labels[lo:hi])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Errorf("labels=%v, %d rows a block: file differs from WriteMatrix's", hasLabels, step)
			}
		}
	}
}

// TestPortableCodecMatchesView: the value-by-value encoding that
// big-endian hosts use is the byte view little-endian hosts use.
func TestPortableCodecMatchesView(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("the view is not the file encoding on this host")
	}
	fs := []float64{0, 1, -1, math.Pi, math.Inf(-1), math.SmallestNonzeroFloat64, math.Float64frombits(0x0102030405060708)}
	view := floatBytes(fs)
	if portable := appendFloats(nil, fs); !bytes.Equal(view, portable) {
		t.Errorf("view %x, portable encoding %x", view, portable)
	}
	a, b := make([]float64, len(fs)), make([]float64, len(fs))
	if err := readFloats(bytes.NewReader(view), a); err != nil {
		t.Fatal(err)
	}
	if err := decodeFloats(bytes.NewReader(view), b); err != nil {
		t.Fatal(err)
	}
	for i := range fs {
		if math.Float64bits(a[i]) != math.Float64bits(fs[i]) || math.Float64bits(b[i]) != math.Float64bits(fs[i]) {
			t.Errorf("value %d: read %v, decoded %v, want %v", i, a[i], b[i], fs[i])
		}
	}
	if err := decodeFloats(bytes.NewReader(view[:len(view)-1]), b); err == nil {
		t.Error("decoded a short stream")
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestFailedWriteRemovesFile: a producer that fails after Create
// leaves no partial file — which would carry a zero checksum and
// verify trivially — and one that fails before Create touches nothing.
func TestFailedWriteRemovesFile(t *testing.T) {
	// A block that is not whole rows is refused and writes nothing.
	path := tmpPath(t, "p.m3")
	w, err := Create(path, 4, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRows(make([]float64, 6), []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]struct{ block, labels []float64 }{
		"a wrong-width row in the middle of the block": {make([]float64, 5), []float64{0, 1}},
		"a label short":           {make([]float64, 6), []float64{0}},
		"more rows than declared": {make([]float64, 9), []float64{0, 1, 2}},
		"an empty block":          {nil, nil},
	} {
		if err := w.WriteRows(bad.block, bad.labels); err == nil {
			t.Errorf("WriteRows accepted %s", name)
		}
	}
	if err := w.WriteRow(make([]float64, 6), 0); err == nil {
		t.Error("WriteRow accepted two rows")
	}
	// Close one row short of the declared count: error, and no file.
	if err := w.WriteRows(make([]float64, 3), []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close accepted 3 of 4 declared rows")
	}
	if exists(path) {
		t.Error("a failed Close left the partial file")
	}
	if err := w.Abort(); err != nil {
		t.Errorf("Abort after a failed Close: %v", err)
	}

	// Abort on its own; then both Close and Abort are no-ops.
	if w, err = Create(path, 2, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if exists(path) {
		t.Error("Abort left the file")
	}
	if err := w.Close(); err != nil {
		t.Errorf("Close after Abort: %v", err)
	}

	// WriteMatrix refusing its arguments has created nothing: a file
	// already at the path is not its to remove.
	if err := os.WriteFile(path, []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrix(path, make([]float64, 5), 2, 3, nil); err == nil {
		t.Error("WriteMatrix accepted 5 values for 2×3")
	}
	if err := WriteMatrix(path, make([]float64, 6), 2, 3, make([]float64, 3)); err == nil {
		t.Error("WriteMatrix accepted 3 labels for 2 rows")
	}
	if b, _ := os.ReadFile(path); string(b) != "mine" {
		t.Errorf("a refused WriteMatrix touched the existing file: %q", b)
	}

	// The importers follow the same rule (ImportLibSVM parses every line
	// before it creates anything).
	csv := tmpPath(t, "bad.csv")
	if err := os.WriteFile(csv, []byte("1,2,0\n3,x,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := tmpPath(t, "bad.m3")
	if err := ImportCSV(csv, out, true); err == nil {
		t.Error("imported a csv with a bad number")
	}
	if exists(out) {
		t.Error("a failed ImportCSV left a partial dataset")
	}
}

var sinkFloats []float64

func BenchmarkReadAll(b *testing.B) {
	const rows, cols = 2048, 784
	path := filepath.Join(b.TempDir(), "bench.m3")
	if err := WriteMatrix(path, make([]float64, rows*cols), rows, cols, make([]float64, rows)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(Header{Rows: rows, Cols: cols, HasLabels: true}.FileSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, _, _, err := ReadAll(path)
		if err != nil {
			b.Fatal(err)
		}
		sinkFloats = x
	}
}
