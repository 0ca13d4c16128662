// Package framing is the shared length-prefixed frame codec under the
// repository's binary formats: the distrib wire protocol and the
// alignment snapshot artifact both speak it with their own magic bytes
// and version numbers. A frame is
//
//	┌─────────────┬─────────┬──────────┬──────────────────┐
//	│ length u32  │ magic   │ ver  typ │ payload          │
//	│ big endian  │ 2 bytes │ 1B   1B  │ length − 4 bytes │
//	└─────────────┴─────────┴──────────┴──────────────────┘
//
// The codec owns exactly the header discipline every format needs and
// nothing else — payload encoding stays with the caller:
//
//   - the magic bytes reject foreign streams before any payload work,
//   - the version byte is an all-or-nothing compatibility statement
//     (readers reject every other version with ErrVersionMismatch
//     rather than guess at field semantics),
//   - the length prefix is treated as hostile input: it is bounded by
//     MaxFrame, the fixed header bytes are validated BEFORE any body
//     allocation, and the body buffer then grows with the bytes that
//     actually arrive (bodyChunk ahead at first, ×4 after), so an
//     unauthenticated peer cannot make a reader allocate a gigabyte
//     with an 8-byte probe,
//   - on a header error the body is still drained (into the void, no
//     allocation) so the frame is fully consumed either way — a peer
//     mid-Write on a fully synchronous link (net.Pipe) would otherwise
//     block forever on the bytes nobody reads,
//   - a codec with Checksum set appends a CRC-32C of the type byte and
//     body as a 4-byte trailer (inside the length prefix), so payload
//     corruption in transit is a detected, retryable error instead of
//     silently different data.
package framing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrVersionMismatch is returned (wrapped, with both versions) when a
// frame of a different format version arrives. Callers re-export it so
// their users can errors.Is against a package-local name.
var ErrVersionMismatch = errors.New("framing: version mismatch")

// ErrChecksum is returned (wrapped, with both sums) when a checksummed
// frame's body does not hash to its trailer — the stream was corrupted
// in transit. The frame was fully consumed, but a reader cannot trust
// anything after an undetected desync, so callers should treat the
// connection as dead and retry on a fresh one.
var ErrChecksum = errors.New("framing: checksum mismatch")

// castagnoli is the CRC-32C table shared by every checksummed codec.
// Castagnoli rather than IEEE for its better burst-error detection (and
// hardware support on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec is one binary format's framing discipline. The zero value is
// not usable; fill every field.
type Codec struct {
	// Magic guards against feeding one format's stream into another's
	// decoder (or any non-framed stream into either).
	Magic [2]byte
	// Version is the format version written on every frame; frames of
	// any other version are rejected with ErrVersionMismatch.
	Version byte
	// MaxFrame bounds a frame's declared length (header + body bytes
	// after the length prefix) so a corrupt or hostile length prefix
	// cannot OOM the reader.
	MaxFrame int
	// Checksum appends a CRC-32C of the type byte and body to every
	// frame (4 trailer bytes, included in the length prefix) and makes
	// the reader verify it, returning ErrChecksum on mismatch. Without
	// it a single flipped payload byte decodes as silently different
	// data; with it corruption downgrades to a detected, retryable
	// transport failure. Both sides of a format must agree — enabling it
	// is a wire-version bump.
	Checksum bool
}

// trailerLen is the per-frame overhead beyond the 4 header bytes when
// Checksum is on.
func (c Codec) trailerLen() int {
	if c.Checksum {
		return 4
	}
	return 0
}

// sum hashes what the trailer covers: the type byte, then the body. The
// magic/version bytes are validated structurally and the length prefix
// is validated by ReadFull, so the sum covers exactly the bytes whose
// corruption would otherwise go unnoticed.
func (c Codec) sum(typ byte, body []byte) uint32 {
	crc := crc32.Update(0, castagnoli, []byte{typ})
	return crc32.Update(crc, castagnoli, body)
}

// WriteFrame writes one frame: the 8-byte header followed by body.
// Oversized bodies are rejected at the writer — shipping gigabytes only
// for the reader to refuse the length prefix (and, past 2³²−4, silently
// wrapping it into a corrupt stream) wastes the whole transfer once per
// retry.
func (c Codec) WriteFrame(w io.Writer, typ byte, body []byte) error {
	if len(body)+4+c.trailerLen() > c.MaxFrame {
		return fmt.Errorf("framing: frame type %d is %d bytes, over the %d limit", typ, len(body)+4+c.trailerLen(), c.MaxFrame)
	}
	header := make([]byte, 8)
	binary.BigEndian.PutUint32(header[0:4], uint32(4+len(body)+c.trailerLen()))
	header[4], header[5] = c.Magic[0], c.Magic[1]
	header[6] = c.Version
	header[7] = typ
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("framing: write frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("framing: write frame body: %w", err)
	}
	if c.Checksum {
		var trailer [4]byte
		binary.BigEndian.PutUint32(trailer[:], c.sum(typ, body))
		if _, err := w.Write(trailer[:]); err != nil {
			return fmt.Errorf("framing: write frame checksum: %w", err)
		}
	}
	return nil
}

// ReadFrame reads one frame and returns its type byte and raw body.
// io.EOF is returned untouched on a clean end-of-stream boundary (no
// bytes read); a stream that dies mid-frame is an error.
func (c Codec) ReadFrame(r io.Reader) (byte, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("framing: read frame length: %w", err)
	}
	length := binary.BigEndian.Uint32(lenBuf[:])
	minLen := uint32(4 + c.trailerLen())
	if length < minLen || length > uint32(c.MaxFrame) {
		return 0, nil, fmt.Errorf("framing: frame length %d outside [%d,%d]", length, minLen, c.MaxFrame)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("framing: read frame header: %w", err)
	}
	hdrErr := error(nil)
	switch {
	case hdr[0] != c.Magic[0] || hdr[1] != c.Magic[1]:
		hdrErr = fmt.Errorf("framing: bad frame magic %q, want %q", hdr[0:2], c.Magic[:])
	case hdr[2] != c.Version:
		hdrErr = fmt.Errorf("%w: got %d, want %d", ErrVersionMismatch, hdr[2], c.Version)
	}
	if hdrErr != nil {
		io.CopyN(io.Discard, r, int64(length-4))
		return 0, nil, hdrErr
	}
	body, err := readBody(r, int(length-4))
	if err != nil {
		return 0, nil, fmt.Errorf("framing: read frame body: %w", err)
	}
	if c.Checksum {
		body, trailer := body[:len(body)-4], body[len(body)-4:]
		want := binary.BigEndian.Uint32(trailer)
		if got := c.sum(hdr[3], body); got != want {
			return 0, nil, fmt.Errorf("%w: frame type %d sums to %08x, trailer says %08x", ErrChecksum, hdr[3], got, want)
		}
		return hdr[3], body, nil
	}
	return hdr[3], body, nil
}

// bodyChunk is the most a reader allocates ahead of the body bytes it
// has received; frames up to this size are read in one allocation.
const bodyChunk = 1 << 20

// readBody reads the n declared body bytes, never holding more than
// four times what has arrived (plus bodyChunk). Growing by four keeps
// the copying a multi-megabyte frame pays to its first chunk or so.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, min(n, bodyChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(r, body[have:]); err != nil {
			return nil, err
		}
		if have = len(body); have == n {
			return body, nil
		}
		grown := make([]byte, min(n, 4*have))
		copy(grown, body)
		body = grown
	}
}
