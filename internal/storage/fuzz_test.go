package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzScanMatrixCSV feeds arbitrary bytes to ScanMatrixCSV, which decodes
// files the process did not write. It must never panic, and it must agree
// with a reference built from encoding/csv's records: an input whose records
// are all as wide as the first and all parse is accepted with every row equal
// to strconv.ParseFloat of its trimmed fields; the first ragged or
// unparseable record is an error naming its row, after exactly the rows
// before it were delivered; a malformed record is an error; empty input is an
// error.
func FuzzScanMatrixCSV(f *testing.F) {
	for _, s := range []string{
		"1,2,3\n4,5,6\n",
		" 1.5 , -2e3\n\t3,NaN\n",
		"1,2\n3\n",
		"1,2\n3,x\n",
		"\"1\",\"2\"\n",
		"1,\"2\n",
		"",
		"\n\n",
		"Inf,-Inf,0x1p-2\n",
		"1;2\r\n3;4\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var got [][]float64
		err := ScanMatrixCSV(strings.NewReader(string(in)), func(vals []float64) error {
			got = append(got, append([]float64(nil), vals...))
			return nil
		})

		want, wantErr := referenceCSV(string(in))
		if len(got) != len(want) {
			t.Fatalf("%q: delivered %d rows, reference %d (err %v, reference %v)", in, len(got), len(want), err, wantErr)
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%q: row %d has %d values, reference %d", in, i+1, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%q: row %d col %d = %v, reference %v", in, i+1, j+1, got[i][j], want[i][j])
				}
			}
		}
		switch {
		case wantErr == nil && err != nil:
			t.Fatalf("%q: rejected a well-formed input: %v", in, err)
		case wantErr != nil && err == nil:
			t.Fatalf("%q: accepted, reference rejects: %v", in, wantErr)
		case wantErr != nil && wantErr.row > 0 && !strings.Contains(err.Error(), fmt.Sprintf("row %d ", wantErr.row)):
			t.Fatalf("%q: error %q does not name row %d (%v)", in, err, wantErr.row, wantErr)
		}
	})
}

// csvRefError is the reference's verdict on a rejected input: row is the
// 1-based record the scanner must name, 0 when the error names no row (empty
// input, malformed quoting).
type csvRefError struct {
	row int
	msg string
}

func (e *csvRefError) Error() string { return e.msg }

// referenceCSV parses in record by record with encoding/csv and returns the
// rows ScanMatrixCSV must deliver and, when it must fail, why.
func referenceCSV(in string) ([][]float64, *csvRefError) {
	cr := csv.NewReader(strings.NewReader(in))
	cr.FieldsPerRecord = -1
	var rows [][]float64
	for n := 1; ; n++ {
		rec, err := cr.Read()
		if err == io.EOF {
			if n == 1 {
				return nil, &csvRefError{msg: "empty input"}
			}
			return rows, nil
		}
		if err != nil {
			return rows, &csvRefError{msg: err.Error()}
		}
		if n > 1 && len(rec) != len(rows[0]) {
			return rows, &csvRefError{row: n, msg: fmt.Sprintf("ragged: %d fields, want %d", len(rec), len(rows[0]))}
		}
		vals := make([]float64, len(rec))
		for j, field := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return rows, &csvRefError{row: n, msg: err.Error()}
			}
			vals[j] = v
		}
		rows = append(rows, vals)
	}
}
