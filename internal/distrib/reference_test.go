package distrib

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/metadiag"
)

// referenceDecodeSeedEntry is the seed-entry decoder as it stood before
// the two-pass rewrite — one framing.Dec call per varint, the column
// array grown by append — reading the v8 segment's endpoint nodes and
// the v13 layout byte where the segment now has them. A block (layout
// 1) comes back as arrays too, its cells walked one by one, and block
// reports that it shipped so. The differential test and the fuzz target
// hold decodeSeedEntry to its output and to its accept/reject verdict on
// every input.
func referenceDecodeSeedEntry(seg []byte) (e metadiag.SeedEntry, block bool, err error) {
	d := framing.NewDec(seg)
	e.Key = d.String()
	e.Source = decodeNode(d)
	e.Sink = decodeNode(d)
	e.Rows = d.Int()
	e.Cols = d.Int()
	layout := d.Byte()
	if d.Err() == nil && (e.Rows < 0 || e.Rows > d.Remaining()) {
		// Each row costs at least its 1-byte length.
		d.Fail("seed row count")
	}
	if d.Err() != nil {
		return e, false, d.Err()
	}
	switch layout {
	case 0:
	case 1:
		if e.Cols <= 0 || d.Remaining()%e.Cols != 0 || d.Remaining()/e.Cols != e.Rows {
			return e, true, fmt.Errorf("%d cell bytes for a %dx%d block", d.Remaining(), e.Rows, e.Cols)
		}
		e.RowPtr = make([]int, e.Rows+1)
		for r := 0; r < e.Rows; r++ {
			for c := 0; c < e.Cols; c++ {
				if v := d.Byte(); v != 0 {
					e.ColIdx = append(e.ColIdx, c)
					e.Val = append(e.Val, float64(v))
				}
			}
			e.RowPtr[r+1] = len(e.Val)
		}
		return e, true, d.Done()
	default:
		return e, false, fmt.Errorf("layout byte %d", layout)
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
		return e, false, d.Err()
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
	return e, false, d.Done()
}
