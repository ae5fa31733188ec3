package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// ExportCSV writes an opened dataset as CSV. When labels are present
// they become the last column. Intended for interoperability checks
// and small extracts, not for the multi-GB files themselves.
func (d *Dataset) ExportCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cols := int(d.Cols)
	rec := make([]byte, 0, cols*16)
	for i := int64(0); i < d.Rows; i++ {
		rec = rec[:0]
		row := d.x[i*d.Cols : (i+1)*d.Cols]
		for j, v := range row {
			if j > 0 {
				rec = append(rec, ',')
			}
			rec = strconv.AppendFloat(rec, v, 'g', -1, 64)
		}
		if d.HasLabels {
			rec = append(rec, ',')
			rec = strconv.AppendFloat(rec, d.labels[i], 'g', -1, 64)
		}
		rec = append(rec, '\n')
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ImportCSV converts a CSV file (numeric fields only) into dataset
// format. If labelLast is true the final column becomes the label
// vector. It streams with two passes: one to count rows, one to write.
func ImportCSV(csvPath, outPath string, labelLast bool) error {
	rows, cols, err := csvShape(csvPath)
	if err != nil {
		return err
	}
	featCols := cols
	if labelLast {
		if cols < 2 {
			return fmt.Errorf("dataset: csv %q has %d columns, need >= 2 for labels", csvPath, cols)
		}
		featCols--
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReader(f))
	r.FieldsPerRecord = cols

	w, err := Create(outPath, int64(rows), int64(featCols), labelLast)
	if err != nil {
		return err
	}
	rowBuf := make([]float64, featCols)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Abort()
			return err
		}
		var label float64
		for j, field := range rec {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				w.Abort()
				return fmt.Errorf("dataset: csv %q: bad number %q: %w", csvPath, field, err)
			}
			if labelLast && j == cols-1 {
				label = v
			} else {
				rowBuf[j] = v
			}
		}
		if err := w.WriteRow(rowBuf, label); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

func csvShape(path string) (rows, cols int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReader(f))
	r.ReuseRecord = true
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		if rows == 0 {
			cols = len(rec)
		}
		rows++
	}
	if rows == 0 {
		return 0, 0, fmt.Errorf("dataset: csv %q is empty", path)
	}
	return rows, cols, nil
}
