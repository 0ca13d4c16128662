package sparse

import (
	"strings"
	"testing"
)

func TestRawRoundTrip(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Add(0, 1, 2)
	b.Add(0, 3, 1)
	b.Add(2, 0, 5)
	m := b.Build()
	rows, cols, rowPtr, colIdx, val := m.Raw()
	got, err := FromRaw(rows, cols, rowPtr, colIdx, val)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Errorf("round trip mismatch: %v vs %v", got, m)
	}
	// Empty matrix round trip.
	z := Zero(0, 7)
	r2, c2, rp2, ci2, v2 := z.Raw()
	got2, err := FromRaw(r2, c2, rp2, ci2, v2)
	if err != nil || !got2.Equal(z) {
		t.Errorf("empty round trip: %v, %v", got2, err)
	}
}

func TestFromRawRejectsHostileInput(t *testing.T) {
	cases := []struct {
		name           string
		rows, cols     int
		rowPtr, colIdx []int
		val            []float64
		want           string
	}{
		{"negative shape", -1, 2, []int{0}, nil, nil, "negative shape"},
		{"rowPtr len", 2, 2, []int{0, 0}, nil, nil, "rowPtr len"},
		{"colIdx vs val", 1, 2, []int{0, 1}, []int{0}, nil, "vs val len"},
		{"rowPtr span", 1, 2, []int{0, 2}, []int{0}, []float64{1}, "spans"},
		{"rowPtr nonzero start", 1, 2, []int{1, 1}, []int{0}, []float64{1}, "spans"},
		{"rowPtr decreases", 2, 2, []int{0, 2, 1}, nil, nil, "spans"},
		{"column out of range", 1, 2, []int{0, 1}, []int{2}, []float64{1}, "out of order or range"},
		{"negative column", 1, 2, []int{0, 1}, []int{-1}, []float64{1}, "out of order or range"},
		{"unsorted columns", 1, 3, []int{0, 2}, []int{2, 1}, []float64{1, 1}, "out of order or range"},
		{"duplicate columns", 1, 3, []int{0, 2}, []int{1, 1}, []float64{1, 1}, "out of order or range"},
	}
	for _, tc := range cases {
		_, err := FromRaw(tc.rows, tc.cols, tc.rowPtr, tc.colIdx, tc.val)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want %q", tc.name, err, tc.want)
		}
	}
	// A decreasing interior rowPtr with consistent endpoints.
	_, err := FromRaw(3, 2, []int{0, 2, 1, 2}, []int{0, 1}, []float64{1, 1})
	if err == nil || !strings.Contains(err.Error(), "decreases") {
		t.Errorf("decreasing rowPtr: %v", err)
	}
	// An interior rowPtr past the entries, consistent endpoints again: the
	// row must be refused before its columns are read.
	_, err = FromRaw(2, 2, []int{0, 9, 2}, []int{0, 1}, []float64{1, 1})
	if err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Errorf("overrunning rowPtr: %v", err)
	}
}
