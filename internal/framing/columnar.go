// Put/get primitives for hand-rolled frame bodies — the one vocabulary
// under the distrib wire frames, the snapshot artifact's records and
// the setsync entries (docs/WIRE.md §Framing primitives): varint
// scalars, length-prefixed strings, packed float64/uint64 runs, written
// and read in a fixed field order with no self-description. The
// encoding side is alloc-light append functions over a caller-owned
// []byte; the decoding side is a sticky-error cursor (Dec) with the
// same hostile-input discipline as the frame reader: every declared
// element count is checked against the bytes actually remaining BEFORE
// allocation, so a corrupt four-byte count cannot make a reader
// allocate gigabytes.
package framing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is returned (wrapped) by Dec when a frame body declares
// more content than it carries — a truncated or corrupt columnar body.
var ErrTruncated = errors.New("framing: truncated columnar body")

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v zigzag-encoded, cheap for small magnitudes of
// either sign.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendBool appends a single 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a uvarint byte count followed by the raw bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStrings appends a uvarint element count followed by each string.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendFloat64 appends one float64 as 8 little-endian IEEE-754 bytes.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBytes appends a uvarint byte count followed by the raw bytes —
// an opaque sub-segment (a nested encoding, a bit-flag column).
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendUint32 appends one uint32 as 4 little-endian bytes.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendUint64 appends one uint64 as 8 little-endian bytes — the
// column form for hashes and fingerprints, which don't varint-compress.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendUint64s appends a uvarint element count followed by the packed
// column: 8 little-endian bytes per element.
func AppendUint64s(b []byte, vs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// AppendFloat64s appends a uvarint element count followed by the packed
// column: 8 little-endian IEEE-754 bytes per element.
func AppendFloat64s(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// Dec is a sticky-error cursor over one columnar frame body. Getters
// return zero values after the first error; check Err (or Done) once at
// the end instead of after every field. Byte slices returned by String
// and Bytes are copies — only Raw aliases its input — so the frame
// buffer can be reused.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a cursor over body.
func NewDec(body []byte) *Dec { return &Dec{b: body} }

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Dec) Remaining() int { return len(d.b) }

// Done returns the first decode error, or an error if unconsumed bytes
// remain — a strict end-of-body check for fixed-layout frames.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("framing: %d trailing bytes after columnar body", len(d.b))
	}
	return nil
}

func (d *Dec) fail(context string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrTruncated, context)
	}
}

// Fail forces the cursor into its sticky error state with a truncation
// error — for callers layering their own count or shape bounds on top
// of the primitives (e.g. "n elements of ≥k bytes each must fit in what
// remains" before allocating n of anything).
func (d *Dec) Fail(context string) { d.fail(context) }

// Uvarint reads one unsigned LEB128 value.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads one zigzag varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads one zigzag varint as an int.
func (d *Dec) Int() int { return int(d.Varint()) }

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool reads one 0/1 byte; any other value is a decode error (a corrupt
// flag must not silently normalize to true).
func (d *Dec) Bool() bool {
	v := d.Byte()
	if d.err == nil && v > 1 {
		d.err = fmt.Errorf("framing: bool byte %d", v)
	}
	return v == 1
}

// Float64 reads one packed float64 (8 little-endian bytes).
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Bytes reads a uvarint byte count and that many bytes, copied out.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("bytes")
		return nil
	}
	p := make([]byte, n)
	copy(p, d.b[:n])
	d.b = d.b[n:]
	return p
}

// Raw reads a uvarint byte count and returns that many bytes WITHOUT
// copying — the one aliasing getter, for large one-shot sub-segments
// (nested encodings decoded in place) whose backing frame buffer
// outlives the decode. Use Bytes when the buffer may be reused.
func (d *Dec) Raw() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("raw segment")
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// String reads a uvarint byte count and that many bytes, copied out.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Strings reads a string column. The declared count is bounded by the
// remaining bytes (each element costs at least its 1-byte count).
func (d *Dec) Strings() []string {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("strings count")
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
		if d.err != nil {
			return nil
		}
	}
	return out
}

// Uint32 reads one packed uint32 (4 little-endian bytes).
func (d *Dec) Uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.fail("uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// Uint64 reads one packed uint64 (8 little-endian bytes).
func (d *Dec) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// Uint64s reads a packed uint64 column (8 bytes per element).
func (d *Dec) Uint64s() []uint64 {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b))/8 {
		d.fail("uint64s count")
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(d.b[i*8:])
	}
	d.b = d.b[n*8:]
	return out
}

// Float64s reads a packed float64 column (8 bytes per element).
func (d *Dec) Float64s() []float64 {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b))/8 {
		d.fail("float64s count")
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[i*8:]))
	}
	d.b = d.b[n*8:]
	return out
}
