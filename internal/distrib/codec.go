// Columnar wire codec: every frame body is a flat struct-of-arrays
// layout over internal/framing primitives — no type descriptors, no
// per-field framing. Index slices become varint columns, float payloads
// pack as raw little-endian runs, and parallel arrays (I/J/Label) are
// written column by column so the varints of like-valued fields sit
// together. The frames that dominate a run's bytes are Votes (the whole
// candidate pool back), Done (weight vectors), Job (pools and prelabels)
// and the warm-counter Seed (seed.go); the control frames are one to
// four scalars each.
//
// The layouts are part of the wire contract (Version history in
// wire.go, field tables in docs/WIRE.md): any change to an appendBody /
// decodeBody pair is a protocol version bump. Decoders follow the
// hostile-input discipline of internal/framing — every declared count is
// bounded by the bytes remaining (at the element's minimum encoded
// size) before allocation, parallel columns share one length, and
// trailing bytes fail the decode.
package distrib

import (
	"fmt"

	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/hetnet"
)

// finish ends a body decode: the cursor's sticky error, or bytes left
// over after the last field, fail the frame.
func finish(d *framing.Dec, frame string) error {
	if err := d.Done(); err != nil {
		return fmt.Errorf("distrib: %s frame: %w", frame, err)
	}
	return nil
}

// appendAnchors writes an anchor list as an I column then a J column.
func appendAnchors(b []byte, as []hetnet.Anchor) []byte {
	b = framing.AppendUvarint(b, uint64(len(as)))
	for _, a := range as {
		b = framing.AppendVarint(b, int64(a.I))
	}
	for _, a := range as {
		b = framing.AppendVarint(b, int64(a.J))
	}
	return b
}

func decodeAnchors(d *framing.Dec) []hetnet.Anchor {
	n := d.Uvarint()
	if d.Err() != nil || n == 0 {
		return nil
	}
	// Two varint columns: each anchor costs at least 2 bytes.
	if n > uint64(d.Remaining())/2 {
		d.Fail("anchor count")
		return nil
	}
	as := make([]hetnet.Anchor, n)
	for i := range as {
		as[i].I = d.Int()
	}
	for i := range as {
		as[i].J = d.Int()
	}
	return as
}

// appendWireLabels writes a label list as I, J and Label columns.
func appendWireLabels(b []byte, ls []WireLabel) []byte {
	b = framing.AppendUvarint(b, uint64(len(ls)))
	for _, l := range ls {
		b = framing.AppendVarint(b, int64(l.I))
	}
	for _, l := range ls {
		b = framing.AppendVarint(b, int64(l.J))
	}
	for _, l := range ls {
		b = framing.AppendFloat64(b, l.Label)
	}
	return b
}

func decodeWireLabels(d *framing.Dec) []WireLabel {
	n := d.Uvarint()
	if d.Err() != nil || n == 0 {
		return nil
	}
	// Two varint columns plus a packed float64 column: ≥ 10 bytes each.
	if n > uint64(d.Remaining())/10 {
		d.Fail("label count")
		return nil
	}
	ls := make([]WireLabel, n)
	for i := range ls {
		ls[i].I = int32(d.Varint())
	}
	for i := range ls {
		ls[i].J = int32(d.Varint())
	}
	for i := range ls {
		ls[i].Label = d.Float64()
	}
	return ls
}

// Job body: scalars, the pool and label columns, then the training
// configuration and the trace-context tail (two bytes when zero).
func (j *Job) appendBody(b []byte) []byte {
	b = framing.AppendVarint(b, int64(j.Shard))
	b = framing.AppendString(b, j.AnchorType)
	b = appendAnchors(b, j.TrainPos)
	b = appendAnchors(b, j.Candidates)
	b = appendWireLabels(b, j.Prelabeled)
	b = framing.AppendString(b, j.FeatureSet)
	b = framing.AppendString(b, j.Strategy)
	b = framing.AppendFloat64(b, j.C)
	b = framing.AppendFloat64(b, j.Threshold)
	b = framing.AppendBool(b, j.HasThreshold)
	b = framing.AppendVarint(b, int64(j.Budget))
	b = framing.AppendVarint(b, int64(j.BatchSize))
	b = framing.AppendBool(b, j.Exact)
	b = framing.AppendVarint(b, j.Seed)
	b = framing.AppendUvarint(b, j.TraceID)
	b = framing.AppendUvarint(b, j.SpanID)
	return b
}

func (j *Job) decodeBody(body []byte) error {
	d := framing.NewDec(body)
	j.Shard = d.Int()
	j.AnchorType = d.String()
	j.TrainPos = decodeAnchors(d)
	j.Candidates = decodeAnchors(d)
	j.Prelabeled = decodeWireLabels(d)
	j.FeatureSet = d.String()
	j.Strategy = d.String()
	j.C = d.Float64()
	j.Threshold = d.Float64()
	j.HasThreshold = d.Bool()
	j.Budget = d.Int()
	j.BatchSize = d.Int()
	j.Exact = d.Bool()
	j.Seed = d.Varint()
	j.TraceID = d.Uvarint()
	j.SpanID = d.Uvarint()
	return finish(d, "job")
}

// Votes body: shard, then I/J varint columns, Label/Score packed
// float64 columns, and a one-byte flag column (bit 0 Queried, bit 1
// Fixed).
func (v *Votes) appendBody(b []byte) []byte {
	b = framing.AppendVarint(b, int64(v.Shard))
	b = framing.AppendUvarint(b, uint64(len(v.Votes)))
	for _, x := range v.Votes {
		b = framing.AppendVarint(b, int64(x.I))
	}
	for _, x := range v.Votes {
		b = framing.AppendVarint(b, int64(x.J))
	}
	for _, x := range v.Votes {
		b = framing.AppendFloat64(b, x.Label)
	}
	for _, x := range v.Votes {
		b = framing.AppendFloat64(b, x.Score)
	}
	for _, x := range v.Votes {
		var f byte
		if x.Queried {
			f |= 1
		}
		if x.Fixed {
			f |= 2
		}
		b = append(b, f)
	}
	return b
}

func (v *Votes) decodeBody(body []byte) error {
	d := framing.NewDec(body)
	v.Shard = d.Int()
	n := d.Uvarint()
	if d.Err() == nil && n > 0 {
		// Two varint columns, two packed float64 columns, one flag byte:
		// ≥ 19 bytes per vote.
		if n > uint64(d.Remaining())/19 {
			d.Fail("vote count")
		} else {
			vs := make([]Vote, n)
			for i := range vs {
				vs[i].I = int32(d.Varint())
			}
			for i := range vs {
				vs[i].J = int32(d.Varint())
			}
			for i := range vs {
				vs[i].Label = d.Float64()
			}
			for i := range vs {
				vs[i].Score = d.Float64()
			}
			for i := range vs {
				f := d.Byte()
				if d.Err() == nil && f > 3 {
					d.Fail("vote flags")
					break
				}
				vs[i].Queried = f&1 != 0
				vs[i].Fixed = f&2 != 0
			}
			v.Votes = vs
		}
	}
	return finish(d, "votes")
}

// Done body: report scalars, the cache verdict, the packed weight
// vector, then the v6 worker-span column (count, then per-span ID,
// Parent, Name, StartNS, EndNS — one varint/string group per span; an
// untraced job writes a single zero byte).
func (dn *Done) appendBody(b []byte) []byte {
	b = framing.AppendVarint(b, int64(dn.Shard))
	b = framing.AppendVarint(b, int64(dn.TrainPos))
	b = framing.AppendVarint(b, int64(dn.Candidates))
	b = framing.AppendVarint(b, int64(dn.Budget))
	b = framing.AppendVarint(b, int64(dn.Queries))
	b = framing.AppendVarint(b, dn.ElapsedNS)
	b = framing.AppendBool(b, dn.Cached)
	b = framing.AppendFloat64s(b, dn.W)
	b = framing.AppendUvarint(b, uint64(len(dn.Spans)))
	for i := range dn.Spans {
		sp := &dn.Spans[i]
		b = framing.AppendUvarint(b, sp.ID)
		b = framing.AppendUvarint(b, sp.Parent)
		b = framing.AppendString(b, sp.Name)
		b = framing.AppendVarint(b, sp.StartNS)
		b = framing.AppendVarint(b, sp.EndNS)
	}
	return b
}

func (dn *Done) decodeBody(body []byte) error {
	d := framing.NewDec(body)
	dn.Shard = d.Int()
	dn.TrainPos = d.Int()
	dn.Candidates = d.Int()
	dn.Budget = d.Int()
	dn.Queries = d.Int()
	dn.ElapsedNS = d.Varint()
	dn.Cached = d.Bool()
	dn.W = d.Float64s()
	n := d.Uvarint()
	if d.Err() == nil && n > 0 {
		// Two uvarints, a string length, two varints: ≥ 5 bytes per span.
		if n > uint64(d.Remaining())/5 {
			d.Fail("span count")
		} else {
			spans := make([]WireSpan, n)
			for i := range spans {
				spans[i].ID = d.Uvarint()
				spans[i].Parent = d.Uvarint()
				spans[i].Name = d.String()
				spans[i].StartNS = d.Varint()
				spans[i].EndNS = d.Varint()
			}
			dn.Spans = spans
		}
	}
	return finish(d, "done")
}

// Control-frame bodies: the struct's fields in declaration order, ints as
// varints, fingerprints and sequence numbers as uvarints.

func (h *Hello) appendBody(b []byte) []byte {
	return framing.AppendUvarint(framing.AppendString(b, h.Role), h.SeedFP)
}

func (h *Hello) decodeBody(body []byte) error {
	d := framing.NewDec(body)
	h.Role, h.SeedFP = d.String(), d.Uvarint()
	return finish(d, "hello")
}

func (q *Query) appendBody(b []byte) []byte {
	b = framing.AppendVarint(b, int64(q.Shard))
	b = framing.AppendUvarint(b, q.Seq)
	b = framing.AppendVarint(b, int64(q.I))
	return framing.AppendVarint(b, int64(q.J))
}

func (q *Query) decodeBody(body []byte) error {
	d := framing.NewDec(body)
	q.Shard, q.Seq, q.I, q.J = d.Int(), d.Uvarint(), int32(d.Varint()), int32(d.Varint())
	return finish(d, "query")
}

func (a *Answer) appendBody(b []byte) []byte {
	return framing.AppendFloat64(framing.AppendUvarint(b, a.Seq), a.Label)
}

func (a *Answer) decodeBody(body []byte) error {
	d := framing.NewDec(body)
	a.Seq, a.Label = d.Uvarint(), d.Float64()
	return finish(d, "answer")
}

func (e *JobError) appendBody(b []byte) []byte {
	return framing.AppendString(framing.AppendVarint(b, int64(e.Shard)), e.Msg)
}

func (e *JobError) decodeBody(body []byte) error {
	d := framing.NewDec(body)
	e.Shard, e.Msg = d.Int(), d.String()
	return finish(d, "error")
}
