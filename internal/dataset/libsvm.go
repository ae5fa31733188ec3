package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ImportLibSVM converts a libsvm/svmlight file ("label idx:val ...",
// 1-based feature indices) into the dense M3 dataset format. The
// feature dimensionality is the maximum index seen; absent features
// are zero. It streams with two passes.
func ImportLibSVM(svmPath, outPath string) error {
	rows, cols, err := libsvmShape(svmPath)
	if err != nil {
		return err
	}
	f, err := os.Open(svmPath)
	if err != nil {
		return err
	}
	defer f.Close()

	w, err := Create(outPath, int64(rows), int64(cols), true)
	if err != nil {
		return err
	}
	rowBuf := make([]float64, cols)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, feats, err := parseLibSVMLine(line)
		if err != nil {
			w.Abort()
			return fmt.Errorf("dataset: %s:%d: %w", svmPath, lineNo, err)
		}
		for i := range rowBuf {
			rowBuf[i] = 0
		}
		for _, fv := range feats {
			rowBuf[fv.idx-1] = fv.val
		}
		if err := w.WriteRow(rowBuf, label); err != nil {
			w.Abort()
			return err
		}
	}
	if err := sc.Err(); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

type featVal struct {
	idx int
	val float64
}

func parseLibSVMLine(line string) (label float64, feats []featVal, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return 0, nil, fmt.Errorf("empty record")
	}
	label, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, nil, fmt.Errorf("bad label %q: %w", fields[0], err)
	}
	for _, tok := range fields[1:] {
		colon := strings.IndexByte(tok, ':')
		if colon <= 0 {
			return 0, nil, fmt.Errorf("bad feature %q", tok)
		}
		idx, err := strconv.Atoi(tok[:colon])
		if err != nil || idx < 1 {
			return 0, nil, fmt.Errorf("bad feature index %q", tok[:colon])
		}
		val, err := strconv.ParseFloat(tok[colon+1:], 64)
		if err != nil {
			return 0, nil, fmt.Errorf("bad feature value %q: %w", tok[colon+1:], err)
		}
		feats = append(feats, featVal{idx: idx, val: val})
	}
	return label, feats, nil
}

func libsvmShape(path string) (rows, maxIdx int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		_, feats, err := parseLibSVMLine(line)
		if err != nil {
			return 0, 0, fmt.Errorf("dataset: %s:%d: %w", path, lineNo, err)
		}
		rows++
		for _, fv := range feats {
			if fv.idx > maxIdx {
				maxIdx = fv.idx
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if rows == 0 {
		return 0, 0, fmt.Errorf("dataset: libsvm %q has no records", path)
	}
	if maxIdx == 0 {
		return 0, 0, fmt.Errorf("dataset: libsvm %q has no features", path)
	}
	return rows, maxIdx, nil
}

// ExportLibSVM writes an opened dataset in libsvm format (zeros are
// omitted, indices 1-based). Datasets without labels get label 0.
func (d *Dataset) ExportLibSVM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := int64(0); i < d.Rows; i++ {
		label := 0.0
		if d.HasLabels {
			label = d.labels[i]
		}
		if _, err := bw.WriteString(strconv.FormatFloat(label, 'g', -1, 64)); err != nil {
			return err
		}
		row := d.x[i*d.Cols : (i+1)*d.Cols]
		for j, v := range row {
			if v == 0 {
				continue
			}
			if _, err := fmt.Fprintf(bw, " %d:%s", j+1, strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
