package distrib

import (
	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/metadiag"
)

// referenceDecodeSeedEntry is the seed-entry decoder as it stood before
// the two-pass rewrite — one framing.Dec call per varint, the column
// array grown by append — reading the v8 segment's endpoint nodes where
// the segment now has them. The differential test and the fuzz
// target hold decodeSeedEntry to its output and to its accept/reject
// verdict on every input.
func referenceDecodeSeedEntry(seg []byte) (metadiag.SeedEntry, error) {
	var e metadiag.SeedEntry
	d := framing.NewDec(seg)
	e.Key = d.String()
	e.Source = decodeNode(d)
	e.Sink = decodeNode(d)
	e.Rows = d.Int()
	e.Cols = d.Int()
	if d.Err() == nil && (e.Rows < 0 || e.Rows > d.Remaining()) {
		// Each row costs at least its 1-byte length.
		d.Fail("seed row count")
	}
	if d.Err() != nil {
		return e, d.Err()
	}
	rowPtr := make([]int, e.Rows+1)
	var colIdx []int
	nnz := 0
	for r := 0; r < e.Rows && d.Err() == nil; r++ {
		n := d.Uvarint()
		if n > uint64(d.Remaining()) {
			d.Fail("seed row length")
			break
		}
		prev := 0
		for k := uint64(0); k < n; k++ {
			prev += int(d.Uvarint())
			colIdx = append(colIdx, prev)
		}
		nnz += int(n)
		rowPtr[r+1] = nnz
	}
	ints := d.Bool()
	if d.Err() != nil {
		return e, d.Err()
	}
	val := make([]float64, nnz)
	if ints {
		for k := range val {
			val[k] = float64(d.Uvarint())
		}
	} else {
		for k := range val {
			val[k] = d.Float64()
		}
	}
	e.RowPtr, e.ColIdx, e.Val = rowPtr, colIdx, val
	if err := d.Done(); err != nil {
		return e, err
	}
	return e, nil
}
