// Package snapshot persists a trained alignment as a versioned binary
// artifact — the offline→online bridge between the training pipelines
// (monolithic, partitioned, distributed) and the alignd query server.
//
// A snapshot freezes everything the read side of an alignment needs,
// detached from the networks and the training machinery:
//
//   - provenance: which facade trained it, when, on what data (network
//     names, user ID tables, structural fingerprints),
//   - the schema notation set (the feature vector layout) and the
//     trained feature weights — one vector per part, a monolithic run
//     being part 0 of one — which rebuild into core.Predictor for
//     inductive rescoring,
//   - the reconciled one-to-one matching with scores,
//   - per-source-user top-k ranked candidates in both directions,
//   - the full candidate pool with final labels, best scores, and the
//     oracle audit (enough to re-run EvaluateAlignment bit-identically),
//   - the queried-label log (what the oracle was asked, and its
//     answers).
//
// # Artifact layout
//
// A snapshot is a sequence of length-prefixed frames in the shared
// internal/framing discipline (magic "AS", one version byte on every
// frame, 1 GiB frame cap). Sections appear exactly once, in fixed
// order, each one record (meta, model) or a record count followed by
// the records back to back, in the record codec of records.go:
//
//	meta → model → matches → candidates → pool → labels → end
//
// The end frame carries the section count and an FNV-64a checksum over
// every preceding section body, so truncation and bit rot fail loudly
// at load time instead of serving corrupt answers. A version bump is a
// compatibility statement: readers reject artifacts of any other
// version with ErrVersionMismatch (see docs/SNAPSHOT.md for the golden
// regeneration workflow).
package snapshot

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/activeiter/activeiter/internal/framing"
	"github.com/activeiter/activeiter/internal/hetnet"
)

// Version is the artifact format version. Bump it on any change to
// section payload shapes; readers reject every other version.
//
// Version history:
//
//	1 — PR 5: meta/model/matches/candidates/pool/labels/end.
//	2 — PR 10: Meta gains Shard (user-range split provenance); a v1
//	    reader would decode a shard artifact and silently serve it as
//	    the whole alignment, so the change is a version bump even
//	    though gob tolerates the new field.
//	3 — PR 24: every section body is internal/framing records (a count,
//	    then the rows of records.go) and the end body two framing
//	    integers; encoding/gob, whose type IDs made the bytes depend on
//	    the writing process, is gone. No v2 reader is kept.
//	4 — PR 29: a shard carries the parent's whole net-2 read side (every
//	    match, every net-2 candidate list) so one replica answers a net-2
//	    lookup alone. The bytes are v3's, but a v3 shard holds only its
//	    range's slice of that side, and a router that reads one replica
//	    would serve the slice as the whole answer — so the change is a
//	    version bump. No v3 reader is kept.
//	5 — the model section is the shard table alone: a monolithic run
//	    is frozen as its one-part merge, its weights as shard 0, and the
//	    primary weight vector leaves the format. No v4 reader is kept.
const Version = 5

// maxSectionSize bounds a section's declared length. The pool section
// scales with the candidate pool (tens of bytes per link); 1 GiB is far
// above any realistic alignment and far below pathology.
const maxSectionSize = 1 << 30

// codec is the snapshot instance of the shared framing discipline.
var codec = framing.Codec{Magic: [2]byte{'A', 'S'}, Version: Version, MaxFrame: maxSectionSize}

// ErrVersionMismatch is returned (wrapped, with both versions) when an
// artifact of a different format version is opened. It is the shared
// framing sentinel, re-exported for errors.Is.
var ErrVersionMismatch = framing.ErrVersionMismatch

// Section types, one per frame.
const (
	secMeta byte = iota + 1
	secModel
	secMatches
	secCandidates
	secPool
	secLabels
	secEnd
)

// sections is the fixed on-disk sequence (excluding end): each
// section's frame type, its body encoder and its body decoder. Row
// sections are a uvarint count and the records back to back; the
// candidates section leads with the top-k depth.
var sections = [...]struct {
	typ byte
	enc func(b []byte, s *Snapshot) []byte
	dec func(d *framing.Dec, s *Snapshot)
}{
	{secMeta,
		func(b []byte, s *Snapshot) []byte { return appendMeta(b, &s.Meta) },
		func(d *framing.Dec, s *Snapshot) { s.Meta = readMeta(d) }},
	{secModel,
		func(b []byte, s *Snapshot) []byte { return appendModel(b, &s.Model) },
		func(d *framing.Dec, s *Snapshot) { s.Model = readModel(d) }},
	{secMatches,
		func(b []byte, s *Snapshot) []byte { return appendRows(b, s.Matches, appendMatch) },
		func(d *framing.Dec, s *Snapshot) { s.Matches = readRows(d, minMatch, readMatch) }},
	{secCandidates,
		func(b []byte, s *Snapshot) []byte {
			return appendRows(framing.AppendVarint(b, int64(s.TopK)), s.Cands, appendCand)
		},
		func(d *framing.Dec, s *Snapshot) { s.TopK, s.Cands = d.Int(), readRows(d, minCand, readCand) }},
	{secPool,
		func(b []byte, s *Snapshot) []byte { return appendRows(b, s.Pool, appendPool) },
		func(d *framing.Dec, s *Snapshot) { s.Pool = readRows(d, minPool, readPool) }},
	{secLabels,
		func(b []byte, s *Snapshot) []byte { return appendRows(b, s.Labels, appendLabel) },
		func(d *framing.Dec, s *Snapshot) { s.Labels = readRows(d, minLabel, readLabel) }},
}

// Meta is the snapshot's provenance and schema header.
type Meta struct {
	// CreatedUnix is the build time (Unix seconds).
	CreatedUnix int64
	// Facade names the training path: "monolithic", "partitioned" or
	// "distributed".
	Facade string
	// Net1/Net2 are the network names; Users1/Users2 the user ID tables
	// in index order, so the server resolves external IDs without the
	// networks.
	Net1, Net2     string
	Users1, Users2 []string
	// FP1/FP2 fingerprint each network's full structure and AnchorsFP
	// the ground-truth anchor set — recorded so an operator can tell
	// which dataset build an artifact came from, and so a reload onto
	// changed data is detectable.
	FP1, FP2, AnchorsFP uint64
	// Notation is the feature vector layout: the meta diagram notation
	// set in extraction order, plus the trailing bias term. Weight
	// vectors in the model section are parallel to it.
	Notation []string
	// Training configuration, recorded for provenance and for
	// Predictor reconstruction.
	Features   string // "full", "paths", "extended"
	Strategy   string // "conflict", "random", "uncertainty"
	Threshold  float64
	Seed       int64
	Budget     int
	BatchSize  int
	Partitions int
	Rounds     int
	// Shard is nil for a whole-alignment artifact; a split shard (see
	// Split) carries its net-1 user range, split position, epoch and
	// parent fingerprint here.
	Shard *ShardInfo
}

// ShardModel is one partition's trained weight vector (parallel to
// Meta.Notation), keyed by its Part.Index.
type ShardModel struct {
	Shard int
	W     []float64
}

// Model is the model section: one entry per part, in shard order. A
// monolithic run is one part, shard 0.
type Model struct {
	Shards []ShardModel
}

// Match is one reconciled one-to-one matched pair. HasScore is false
// when every partition scored the link NaN (the matching then came from
// ground truth or an oracle answer).
type Match struct {
	I, J     int32
	Score    float64
	HasScore bool
}

// Candidate is one ranked counterpart suggestion.
type Candidate struct {
	Other int32
	Score float64
}

// UserCandidates is one source user's top-k ranked candidate list. Net
// is 1 (user indexes Users1, candidates Users2) or 2 (the reverse).
type UserCandidates struct {
	Net   uint8
	User  int32
	Items []Candidate
}

// PoolLink is one candidate-pool link's final read-side record.
type PoolLink struct {
	I, J     int32
	Label    float64
	Score    float64
	HasScore bool
	Queried  bool
}

// QueriedLabel is one oracle interaction from the queried-label log.
type QueriedLabel struct {
	I, J  int32
	Label float64
}

// Snapshot is a fully decoded artifact.
type Snapshot struct {
	Meta    Meta
	Model   Model
	Matches []Match
	TopK    int
	Cands   []UserCandidates
	Pool    []PoolLink
	Labels  []QueriedLabel
}

// AnchorsFingerprint hashes a ground-truth anchor set in order.
func AnchorsFingerprint(anchors []hetnet.Anchor) uint64 {
	h := fnv.New64a()
	var num [8]byte
	writeInt := func(v int64) {
		for i := 0; i < 8; i++ {
			num[i] = byte(v >> (8 * i))
		}
		h.Write(num[:])
	}
	writeInt(int64(len(anchors)))
	for _, a := range anchors {
		writeInt(int64(a.I))
		writeInt(int64(a.J))
	}
	return h.Sum64()
}

// DefaultTopK is the per-user candidate list depth built when the
// builder is not told otherwise.
const DefaultTopK = 10

// Build assembles a snapshot from a trained alignment's read side. The
// pair supplies provenance (names, user tables, fingerprints); meta's
// zero-valued provenance fields are filled from it. Pool, matches and
// labels may arrive in any order — Build canonicalizes: pool and labels
// sort by (I, J), matches by I, and the per-user top-k candidate lists
// (topK ≤ 0 means DefaultTopK) are derived from the score-bearing pool
// links, ranked score-descending with index ties ascending.
func Build(pair *hetnet.AlignedPair, meta Meta, model Model, pool []PoolLink, matches []Match, labels []QueriedLabel, topK int) (*Snapshot, error) {
	if pair == nil {
		return nil, fmt.Errorf("snapshot: nil pair")
	}
	if topK <= 0 {
		topK = DefaultTopK
	}
	n1 := pair.G1.NodeCount(hetnet.User)
	n2 := pair.G2.NodeCount(hetnet.User)
	meta.Net1 = pair.G1.Name()
	meta.Net2 = pair.G2.Name()
	meta.Users1 = make([]string, n1)
	for i := range meta.Users1 {
		meta.Users1[i] = pair.G1.NodeID(hetnet.User, i)
	}
	meta.Users2 = make([]string, n2)
	for j := range meta.Users2 {
		meta.Users2[j] = pair.G2.NodeID(hetnet.User, j)
	}
	meta.FP1 = pair.G1.Fingerprint()
	meta.FP2 = pair.G2.Fingerprint()
	meta.AnchorsFP = AnchorsFingerprint(pair.Anchors)

	s := &Snapshot{
		Meta:    meta,
		Model:   model,
		Matches: append([]Match(nil), matches...),
		TopK:    topK,
		Pool:    append([]PoolLink(nil), pool...),
		Labels:  append([]QueriedLabel(nil), labels...),
	}
	// Scoreless entries get a zero placeholder: the serving layer answers
	// JSON, and NaN (the natural in-memory "no score") does not marshal.
	for i := range s.Pool {
		if !s.Pool[i].HasScore {
			s.Pool[i].Score = 0
		}
	}
	for i := range s.Matches {
		if !s.Matches[i].HasScore {
			s.Matches[i].Score = 0
		}
	}
	s.Canonicalize()
	s.Cands = buildTopK(s.Pool, topK)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildTopK derives the per-user ranked candidate lists from the
// score-bearing pool links, both directions, capped at k each.
func buildTopK(pool []PoolLink, k int) []UserCandidates {
	by1 := make(map[int32][]Candidate)
	by2 := make(map[int32][]Candidate)
	for _, p := range pool {
		if !p.HasScore {
			continue
		}
		by1[p.I] = append(by1[p.I], Candidate{Other: p.J, Score: p.Score})
		by2[p.J] = append(by2[p.J], Candidate{Other: p.I, Score: p.Score})
	}
	out := make([]UserCandidates, 0, len(by1)+len(by2))
	emit := func(net uint8, m map[int32][]Candidate) {
		users := make([]int32, 0, len(m))
		for u := range m {
			users = append(users, u)
		}
		sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
		for _, u := range users {
			items := m[u]
			sort.Slice(items, func(a, b int) bool {
				if items[a].Score != items[b].Score {
					return items[a].Score > items[b].Score
				}
				return items[a].Other < items[b].Other
			})
			if len(items) > k {
				items = items[:k]
			}
			out = append(out, UserCandidates{Net: net, User: u, Items: items})
		}
	}
	emit(1, by1)
	emit(2, by2)
	return out
}

// Validate runs the artifact's internal consistency checks: index
// bounds against the user tables (matches, pool links, labels, candidate
// lists and their depth), notation/weight dimension agreement. Encode
// and Read enforce it; it is exported for the layers that assemble
// snapshots from parts (Split, setsync) rather than decode them from a
// checksummed stream.
func (s *Snapshot) Validate() error {
	n1, n2 := int32(len(s.Meta.Users1)), int32(len(s.Meta.Users2))
	checkPair := func(what string, i, j int32) error {
		if i < 0 || i >= n1 || j < 0 || j >= n2 {
			return fmt.Errorf("snapshot: %s (%d,%d) outside the %d×%d user tables", what, i, j, n1, n2)
		}
		return nil
	}
	for _, m := range s.Matches {
		if err := checkPair("match", m.I, m.J); err != nil {
			return err
		}
	}
	for _, p := range s.Pool {
		if err := checkPair("pool link", p.I, p.J); err != nil {
			return err
		}
	}
	for _, l := range s.Labels {
		if err := checkPair("queried label", l.I, l.J); err != nil {
			return err
		}
	}
	for _, uc := range s.Cands {
		users, others := n1, n2
		if uc.Net == 2 {
			users, others = n2, n1
		} else if uc.Net != 1 {
			return fmt.Errorf("snapshot: candidate list for user %d names net %d, want 1 or 2", uc.User, uc.Net)
		}
		if uc.User < 0 || uc.User >= users {
			return fmt.Errorf("snapshot: candidate list user %d outside net %d's %d users", uc.User, uc.Net, users)
		}
		if len(uc.Items) > s.TopK {
			return fmt.Errorf("snapshot: net %d user %d lists %d candidates, top-k is %d", uc.Net, uc.User, len(uc.Items), s.TopK)
		}
		for _, c := range uc.Items {
			if c.Other < 0 || c.Other >= others {
				return fmt.Errorf("snapshot: net %d user %d's candidate %d outside the other net's %d users", uc.Net, uc.User, c.Other, others)
			}
		}
	}
	dim := len(s.Meta.Notation)
	for _, sm := range s.Model.Shards {
		if len(sm.W) != dim {
			return fmt.Errorf("snapshot: shard %d weight vector has %d entries for %d notation terms", sm.Shard, len(sm.W), dim)
		}
	}
	return nil
}

// Encode serializes the snapshot once and returns the bytes with their
// fingerprint — FNV-64a over exactly those bytes, the artifact's
// content identity. The byte stream is a pure function of the
// snapshot's content: equal snapshots encode, and so fingerprint,
// equally in every process.
func (s *Snapshot) Encode() (raw []byte, fp uint64, err error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	var out bytes.Buffer
	var body []byte
	sum := fnv.New64a()
	for _, sec := range sections {
		body = sec.enc(body[:0], s)
		sum.Write(body)
		if err := codec.WriteFrame(&out, sec.typ, body); err != nil {
			return nil, 0, fmt.Errorf("snapshot: %w", err)
		}
	}
	body = framing.AppendUvarint(body[:0], uint64(len(sections)))
	body = framing.AppendUint64(body, sum.Sum64())
	if err := codec.WriteFrame(&out, secEnd, body); err != nil {
		return nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	all := fnv.New64a()
	all.Write(out.Bytes())
	return out.Bytes(), all.Sum64(), nil
}

// Write serializes the snapshot to w.
func (s *Snapshot) Write(w io.Writer) error {
	raw, _, err := s.Encode()
	if err != nil {
		return err
	}
	if _, err := w.Write(raw); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Read decodes and validates an artifact: sections must appear exactly
// once in canonical order, the end checksum must match, and the decoded
// content must pass the same consistency checks Write enforces. A
// truncated stream (missing end frame) and a version-mismatched
// artifact both fail with explicit errors.
func Read(r io.Reader) (*Snapshot, error) {
	s := &Snapshot{}
	sum := fnv.New64a()
	for _, sec := range sections {
		typ, body, err := codec.ReadFrame(r)
		if err == io.EOF {
			return nil, fmt.Errorf("snapshot: truncated artifact: stream ended before section %d", sec.typ)
		}
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		if typ != sec.typ {
			return nil, fmt.Errorf("snapshot: section %d out of order (want %d)", typ, sec.typ)
		}
		sum.Write(body)
		d := framing.NewDec(body)
		sec.dec(d, s)
		if err := d.Done(); err != nil {
			return nil, fmt.Errorf("snapshot: decode section %d: %w", typ, err)
		}
	}
	typ, body, err := codec.ReadFrame(r)
	if err == io.EOF {
		return nil, fmt.Errorf("snapshot: truncated artifact: missing end section")
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if typ != secEnd {
		return nil, fmt.Errorf("snapshot: trailing section %d where the end frame belongs", typ)
	}
	d := framing.NewDec(body)
	count, checksum := d.Uvarint(), d.Uint64()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("snapshot: decode end section: %w", err)
	}
	if count != uint64(len(sections)) {
		return nil, fmt.Errorf("snapshot: end frame claims %d sections, read %d", count, len(sections))
	}
	if got := sum.Sum64(); got != checksum {
		return nil, fmt.Errorf("snapshot: checksum mismatch: artifact is corrupt (got %016x, want %016x)", got, checksum)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// WriteFile writes the artifact to path atomically-enough for a serving
// reload: the bytes go to a temp file in the same directory first, then
// rename into place, so a reader never opens a half-written artifact.
func (s *Snapshot) WriteFile(path string) error {
	raw, _, err := s.Encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(raw)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// OpenFile reads and validates the artifact at path.
func OpenFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}
