// Package setsync distributes snapshot artifacts across a serving
// fleet in bytes proportional to what actually changed. A snapshot is
// decomposed into a SET of content-addressed entries (one per match,
// pool link, candidate list, queried label, plus the scalar head
// sections); two replicas holding almost-identical artifacts then
// reconcile with an invertible Bloom lookup table (IBLT) over the
// entry fingerprints: the stale side ships a constant-factor sketch of
// its set, the fresh side subtracts its own sketch and peels out the
// symmetric difference, and only the differing entries cross the wire.
// When the diff is too large for the sketch — or anything at all goes
// wrong: a corrupt frame, an undecodable sketch, a fingerprint
// mismatch after patching — the protocol falls back to shipping the
// full artifact, so delta sync is purely an optimization and never a
// correctness risk.
//
// The wire format rides internal/framing with its own magic ("SY"),
// version byte and CRC-32C trailers; see sync.go for the protocol.
package setsync

import (
	"fmt"
	"hash/fnv"

	"github.com/activeiter/activeiter/internal/snapshot"
)

// Entry is one content-addressed piece of a snapshot: a record kind
// (snapshot.KindMeta … KindLabel), its body in the snapshot record
// codec, and the fingerprint that names it in the IBLT. The kind byte
// is hashed into the fingerprint, so a pool link and a match with
// identical bytes cannot collide.
type Entry struct {
	Kind byte
	Body []byte
	FP   uint64
}

// splitmix64 is the finalizer used everywhere fingerprints need to be
// spread into independent-looking bits (IBLT positions, check hashes).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fingerprintOf names an entry: FNV-64a over kind and body, finalized
// with splitmix64 so the raw hash's structure cannot leak into the
// table positions. Zero is reserved (a zero key would XOR invisibly
// into KeySum), so it maps to 1.
func fingerprintOf(kind byte, body []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte{kind})
	h.Write(body)
	fp := splitmix64(h.Sum64())
	if fp == 0 {
		fp = 1
	}
	return fp
}

func entryOf(kind byte, body []byte) Entry {
	return Entry{Kind: kind, Body: body, FP: fingerprintOf(kind, body)}
}

// Decompose breaks a snapshot into its entry set: one entry per record
// of the snapshot record codec, heads first. Record bodies are
// deterministic for equal snapshots, so two processes holding equal
// snapshots derive equal fingerprint sets. A duplicate fingerprint —
// two identical entries, impossible in a canonical artifact but cheap
// to check — is an error, because a set reconciler cannot represent
// multiplicity.
func Decompose(s *snapshot.Snapshot) ([]Entry, error) {
	if s == nil {
		return nil, fmt.Errorf("setsync: nil snapshot")
	}
	entries := make([]Entry, 0, 3+len(s.Matches)+len(s.Cands)+len(s.Pool)+len(s.Labels))
	s.EachRecord(func(kind byte, body []byte) { entries = append(entries, entryOf(kind, body)) })
	seen := make(map[uint64]bool, len(entries))
	for _, e := range entries {
		if seen[e.FP] {
			return nil, fmt.Errorf("setsync: duplicate entry fingerprint %016x (kind %d) — artifact is not a canonical set", e.FP, e.Kind)
		}
		seen[e.FP] = true
	}
	return entries, nil
}

// Reassemble rebuilds a snapshot from an entry set, restoring the
// canonical section orderings the artifact format requires. Exactly
// one of each head entry (meta, model, top-k) must be present. The
// result passes the snapshot's own validation; callers then verify the
// content fingerprint against the expected artifact identity.
func Reassemble(entries []Entry) (*snapshot.Snapshot, error) {
	s := &snapshot.Snapshot{}
	var heads [snapshot.KindTopK + 1]int
	for _, e := range entries {
		if err := s.AddRecord(e.Kind, e.Body); err != nil {
			return nil, fmt.Errorf("setsync: %w", err)
		}
		if e.Kind <= snapshot.KindTopK {
			heads[e.Kind]++
		}
	}
	if heads[snapshot.KindMeta] != 1 || heads[snapshot.KindModel] != 1 || heads[snapshot.KindTopK] != 1 {
		return nil, fmt.Errorf("setsync: entry set has %d meta / %d model / %d top-k head entries, want exactly 1 each",
			heads[snapshot.KindMeta], heads[snapshot.KindModel], heads[snapshot.KindTopK])
	}
	s.Canonicalize()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("setsync: reassembled snapshot invalid: %w", err)
	}
	return s, nil
}
