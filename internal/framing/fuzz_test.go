package framing

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzCodec mirrors the distrib wire codec's shape (checksummed) so the
// fuzzer exercises the CRC trailer path.
var fuzzCodec = Codec{Magic: [2]byte{'T', 'C'}, Version: 3, MaxFrame: 1 << 16, Checksum: true}

// fuzzFrame builds one valid frame as raw bytes for seeding.
func fuzzFrame(typ byte, body []byte) []byte {
	var buf bytes.Buffer
	if err := fuzzCodec.WriteFrame(&buf, typ, body); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame feeds arbitrary streams to the frame reader: it must
// never panic or over-allocate, and anything it does accept must
// re-encode to the identical bytes (the codec has one canonical form).
func FuzzReadFrame(f *testing.F) {
	good := fuzzFrame(2, []byte("columnar payload"))
	f.Add(good)
	f.Add(fuzzFrame(1, nil))

	// Truncated length prefix.
	f.Add(good[:2])
	// Truncated mid-body.
	f.Add(good[:len(good)-3])
	// Flipped CRC trailer.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	// Flipped body byte (CRC must catch it).
	corrupt := append([]byte(nil), good...)
	corrupt[9] ^= 0x80
	f.Add(corrupt)
	// Oversized declared length.
	huge := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(huge[0:4], uint32(fuzzCodec.MaxFrame)+1)
	f.Add(huge)
	// Undersized declared length (below header + trailer).
	tiny := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(tiny[0:4], 5)
	f.Add(tiny)
	// Wrong magic, wrong version.
	f.Add([]byte{0, 0, 0, 9, 'X', 'Y', 3, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 9, 'T', 'C', 9, 1, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bytes.NewReader(raw)
		typ, body, err := fuzzCodec.ReadFrame(r)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := fuzzCodec.WriteFrame(&out, typ, body); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		consumed := raw[:len(raw)-r.Len()]
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("non-canonical frame accepted:\n in %x\nout %x", consumed, out.Bytes())
		}
	})
}

// FuzzDec drives the columnar cursor over arbitrary bodies with every
// getter: no panic, no over-allocation, sticky errors only.
func FuzzDec(f *testing.F) {
	var seed []byte
	seed = AppendString(seed, "net")
	seed = AppendUint64s(seed, []uint64{1, 1 << 40, 3})
	seed = AppendFloat64s(seed, []float64{0.5})
	f.Add(seed, uint8(0))
	f.Add(AppendUvarint(nil, 1<<62), uint8(3))

	f.Fuzz(func(t *testing.T, body []byte, order uint8) {
		d := NewDec(body)
		for i := 0; i < 16 && d.Err() == nil; i++ {
			switch (int(order) + i) % 8 {
			case 0:
				d.Uvarint()
			case 1:
				d.Varint()
			case 2:
				d.Byte()
			case 3:
				d.Bool()
			case 4:
				_ = d.String() // vet: String() results must be used
			case 5:
				d.Strings()
			case 6:
				d.Uint64s()
			case 7:
				d.Float64s()
			}
		}
	})
}
