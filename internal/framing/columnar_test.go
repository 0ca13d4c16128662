package framing

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestColumnarRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 1<<40)
	b = AppendVarint(b, -7)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "héllo")
	b = AppendString(b, "")
	b = AppendStrings(b, []string{"a", "", "bc"})
	b = AppendFloat64s(b, []float64{0, -1.5, math.Pi, math.Inf(1)})
	b = AppendFloat64(b, -math.MaxFloat64)
	b = AppendBytes(b, []byte{9, 0, 7})

	d := NewDec(b)
	if got := d.Uvarint(); got != 0 {
		t.Errorf("uvarint: %d", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("uvarint: %d", got)
	}
	if got := d.Varint(); got != -7 {
		t.Errorf("varint: %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bool column mangled")
	}
	if got := d.String(); got != "héllo" {
		t.Errorf("string: %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty string: %q", got)
	}
	if got := d.Strings(); !reflect.DeepEqual(got, []string{"a", "", "bc"}) {
		t.Errorf("strings: %v", got)
	}
	if got := d.Float64s(); !reflect.DeepEqual(got, []float64{0, -1.5, math.Pi, math.Inf(1)}) {
		t.Errorf("float64s: %v", got)
	}
	if got := d.Float64(); got != -math.MaxFloat64 {
		t.Errorf("float64: %v", got)
	}
	if got := d.Bytes(); !reflect.DeepEqual(got, []byte{9, 0, 7}) {
		t.Errorf("bytes: %v", got)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// A declared element count larger than the remaining bytes must fail
// before allocating — the count is hostile input.
func TestDecBoundsCountsBeforeAlloc(t *testing.T) {
	cases := map[string]func(*Dec) any{
		"string":   func(d *Dec) any { return d.String() },
		"strings":  func(d *Dec) any { return d.Strings() },
		"float64s": func(d *Dec) any { return d.Float64s() },
		"bytes":    func(d *Dec) any { return d.Bytes() },
	}
	// Body declares 2^62 elements and carries two bytes of payload.
	body := AppendUvarint(nil, 1<<62)
	body = append(body, 0, 0)
	for name, get := range cases {
		d := NewDec(body)
		get(d)
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("%s: absurd count not rejected: %v", name, d.Err())
		}
	}
}

func TestDecStickyError(t *testing.T) {
	d := NewDec(nil)
	if d.Uvarint() != 0 || d.Err() == nil {
		t.Fatal("empty body should fail the first read")
	}
	first := d.Err()
	// Every later getter stays zero-valued and keeps the first error.
	if d.Varint() != 0 || d.Byte() != 0 || d.Bool() || d.String() != "" ||
		d.Strings() != nil || d.Float64s() != nil {
		t.Error("getter after error returned non-zero")
	}
	if d.Err() != first {
		t.Errorf("error overwritten: %v", d.Err())
	}
}

func TestDecDoneRejectsTrailingBytes(t *testing.T) {
	b := AppendUvarint(nil, 9)
	b = append(b, 0xEE)
	d := NewDec(b)
	if d.Uvarint() != 9 {
		t.Fatal("bad value")
	}
	if err := d.Done(); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestDecBoolRejectsGarbage(t *testing.T) {
	d := NewDec([]byte{7})
	if d.Bool(); d.Err() == nil {
		t.Error("bool byte 7 accepted")
	}
}
