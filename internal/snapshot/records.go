// The record codec: how each of the artifact's record types is laid out
// in internal/framing primitives, and in what order records sit. This
// file holds the one encoder and the one decoder of every record; the
// artifact's sections (snapshot.go) and the setsync delta protocol's
// entries (EachRecord / AddRecord) are the same bytes. Layouts are
// tabulated in docs/SNAPSHOT.md.
package snapshot

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/activeiter/activeiter/internal/framing"
)

// Record kinds. The three heads (meta, model, top-k) occur exactly once
// per artifact; the rest are one record per row. setsync hashes the
// kind byte into each entry fingerprint, so the values are part of the
// sync wire format.
const (
	KindMeta byte = iota + 1
	KindModel
	KindTopK
	KindMatch
	KindCand
	KindPool
	KindLabel
)

// Least encoded sizes, for bounding a declared count by the bytes that
// remain before allocating.
const (
	minMatch      = 11 // 2 varints, f64, bool
	minCand       = 3  // net byte, varint, item count
	minCandItem   = 9  // varint, f64
	minPool       = 20 // 2 varints, 2 f64, 2 bools
	minLabel      = 10 // 2 varints, f64
	minShardModel = 2  // varint, weight count
)

// orNil keeps decoded empty slices nil, as Build leaves them, so a
// decoded snapshot is reflect.DeepEqual to the one that was written.
func orNil[T any](v []T) []T {
	if len(v) == 0 {
		return nil
	}
	return v
}

func appendRows[T any](b []byte, rows []T, app func([]byte, T) []byte) []byte {
	b = framing.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = app(b, r)
	}
	return b
}

func readRows[T any](d *framing.Dec, minBytes int, read func(*framing.Dec) T) []T {
	n := d.Uvarint()
	if n > uint64(d.Remaining()/minBytes) {
		d.Fail("record count")
	}
	if d.Err() != nil || n == 0 {
		return nil
	}
	rows := make([]T, n)
	for i := range rows {
		rows[i] = read(d)
	}
	return rows
}

func appendMeta(b []byte, m *Meta) []byte {
	b = framing.AppendVarint(b, m.CreatedUnix)
	b = framing.AppendString(b, m.Facade)
	b = framing.AppendString(b, m.Net1)
	b = framing.AppendString(b, m.Net2)
	b = framing.AppendStrings(b, m.Users1)
	b = framing.AppendStrings(b, m.Users2)
	b = framing.AppendUint64(b, m.FP1)
	b = framing.AppendUint64(b, m.FP2)
	b = framing.AppendUint64(b, m.AnchorsFP)
	b = framing.AppendStrings(b, m.Notation)
	b = framing.AppendString(b, m.Features)
	b = framing.AppendString(b, m.Strategy)
	b = framing.AppendFloat64(b, m.Threshold)
	b = framing.AppendVarint(b, m.Seed)
	b = framing.AppendVarint(b, int64(m.Budget))
	b = framing.AppendVarint(b, int64(m.BatchSize))
	b = framing.AppendVarint(b, int64(m.Partitions))
	b = framing.AppendVarint(b, int64(m.Rounds))
	b = framing.AppendBool(b, m.Shard != nil)
	if si := m.Shard; si != nil {
		b = framing.AppendVarint(b, int64(si.Range.Lo))
		b = framing.AppendVarint(b, int64(si.Range.Hi))
		b = framing.AppendVarint(b, int64(si.Index))
		b = framing.AppendVarint(b, int64(si.Count))
		b = framing.AppendVarint(b, si.Epoch)
		b = framing.AppendUint64(b, si.ParentFP)
	}
	return b
}

func readMeta(d *framing.Dec) Meta {
	m := Meta{
		CreatedUnix: d.Varint(),
		Facade:      d.String(),
		Net1:        d.String(),
		Net2:        d.String(),
		Users1:      orNil(d.Strings()),
		Users2:      orNil(d.Strings()),
		FP1:         d.Uint64(),
		FP2:         d.Uint64(),
		AnchorsFP:   d.Uint64(),
		Notation:    orNil(d.Strings()),
		Features:    d.String(),
		Strategy:    d.String(),
		Threshold:   d.Float64(),
		Seed:        d.Varint(),
		Budget:      d.Int(),
		BatchSize:   d.Int(),
		Partitions:  d.Int(),
		Rounds:      d.Int(),
	}
	if d.Bool() {
		m.Shard = &ShardInfo{
			Range:    UserRange{Lo: int32(d.Varint()), Hi: int32(d.Varint())},
			Index:    d.Int(),
			Count:    d.Int(),
			Epoch:    d.Varint(),
			ParentFP: d.Uint64(),
		}
	}
	return m
}

func appendShardModel(b []byte, sm ShardModel) []byte {
	b = framing.AppendVarint(b, int64(sm.Shard))
	return framing.AppendFloat64s(b, sm.W)
}

func readShardModel(d *framing.Dec) ShardModel {
	return ShardModel{Shard: d.Int(), W: orNil(d.Float64s())}
}

func appendModel(b []byte, m *Model) []byte {
	return appendRows(b, m.Shards, appendShardModel)
}

func readModel(d *framing.Dec) Model {
	return Model{Shards: readRows(d, minShardModel, readShardModel)}
}

func appendMatch(b []byte, m Match) []byte {
	b = framing.AppendVarint(b, int64(m.I))
	b = framing.AppendVarint(b, int64(m.J))
	b = framing.AppendFloat64(b, m.Score)
	return framing.AppendBool(b, m.HasScore)
}

func readMatch(d *framing.Dec) Match {
	return Match{I: int32(d.Varint()), J: int32(d.Varint()), Score: d.Float64(), HasScore: d.Bool()}
}

func appendCandItem(b []byte, c Candidate) []byte {
	b = framing.AppendVarint(b, int64(c.Other))
	return framing.AppendFloat64(b, c.Score)
}

func readCandItem(d *framing.Dec) Candidate {
	return Candidate{Other: int32(d.Varint()), Score: d.Float64()}
}

func appendCand(b []byte, uc UserCandidates) []byte {
	b = append(b, uc.Net)
	b = framing.AppendVarint(b, int64(uc.User))
	return appendRows(b, uc.Items, appendCandItem)
}

func readCand(d *framing.Dec) UserCandidates {
	return UserCandidates{Net: d.Byte(), User: int32(d.Varint()), Items: readRows(d, minCandItem, readCandItem)}
}

func appendPool(b []byte, p PoolLink) []byte {
	b = framing.AppendVarint(b, int64(p.I))
	b = framing.AppendVarint(b, int64(p.J))
	b = framing.AppendFloat64(b, p.Label)
	b = framing.AppendFloat64(b, p.Score)
	b = framing.AppendBool(b, p.HasScore)
	return framing.AppendBool(b, p.Queried)
}

func readPool(d *framing.Dec) PoolLink {
	return PoolLink{I: int32(d.Varint()), J: int32(d.Varint()), Label: d.Float64(), Score: d.Float64(), HasScore: d.Bool(), Queried: d.Bool()}
}

func appendLabel(b []byte, l QueriedLabel) []byte {
	b = framing.AppendVarint(b, int64(l.I))
	b = framing.AppendVarint(b, int64(l.J))
	return framing.AppendFloat64(b, l.Label)
}

func readLabel(d *framing.Dec) QueriedLabel {
	return QueriedLabel{I: int32(d.Varint()), J: int32(d.Varint()), Label: d.Float64()}
}

// EachRecord calls fn once per record of s with its kind and encoded
// body: the three heads, then matches, candidate lists, pool links and
// labels in section order. Bodies are deterministic, so two processes
// holding equal snapshots emit equal records.
func (s *Snapshot) EachRecord(fn func(kind byte, body []byte)) {
	fn(KindMeta, appendMeta(nil, &s.Meta))
	fn(KindModel, appendModel(nil, &s.Model))
	fn(KindTopK, framing.AppendVarint(nil, int64(s.TopK)))
	for _, m := range s.Matches {
		fn(KindMatch, appendMatch(nil, m))
	}
	for _, uc := range s.Cands {
		fn(KindCand, appendCand(nil, uc))
	}
	for _, p := range s.Pool {
		fn(KindPool, appendPool(nil, p))
	}
	for _, l := range s.Labels {
		fn(KindLabel, appendLabel(nil, l))
	}
}

// AddRecord decodes one record body into s: a head replaces its field,
// a row is appended to its section. The inverse of EachRecord up to
// order — Canonicalize restores that.
func (s *Snapshot) AddRecord(kind byte, body []byte) error {
	d := framing.NewDec(body)
	switch kind {
	case KindMeta:
		s.Meta = readMeta(d)
	case KindModel:
		s.Model = readModel(d)
	case KindTopK:
		s.TopK = d.Int()
	case KindMatch:
		s.Matches = append(s.Matches, readMatch(d))
	case KindCand:
		s.Cands = append(s.Cands, readCand(d))
	case KindPool:
		s.Pool = append(s.Pool, readPool(d))
	case KindLabel:
		s.Labels = append(s.Labels, readLabel(d))
	default:
		return fmt.Errorf("snapshot: unknown record kind %d", kind)
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("snapshot: decode record kind %d: %w", kind, err)
	}
	return nil
}

func byIJ(i1, j1, i2, j2 int32) int {
	return cmp.Or(cmp.Compare(i1, i2), cmp.Compare(j1, j2))
}

// Canonicalize sorts every section into the order the artifact is
// written in — pool and labels by (I, J), matches by I, candidate lists
// by (Net, User), shard models by shard index — so equal content
// serializes, and therefore fingerprints, equally whatever order it
// arrived in.
func (s *Snapshot) Canonicalize() {
	slices.SortFunc(s.Pool, func(a, b PoolLink) int { return byIJ(a.I, a.J, b.I, b.J) })
	slices.SortFunc(s.Labels, func(a, b QueriedLabel) int { return byIJ(a.I, a.J, b.I, b.J) })
	slices.SortFunc(s.Matches, func(a, b Match) int { return cmp.Compare(a.I, b.I) })
	slices.SortFunc(s.Cands, func(a, b UserCandidates) int {
		return cmp.Or(cmp.Compare(a.Net, b.Net), cmp.Compare(a.User, b.User))
	})
	slices.SortFunc(s.Model.Shards, func(a, b ShardModel) int { return cmp.Compare(a.Shard, b.Shard) })
}
