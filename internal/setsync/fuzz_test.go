package setsync

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/activeiter/activeiter/internal/snapshot"
)

// FuzzIBLT feeds hostile bytes to the table decoder and peeler. The
// invariants: no panic, no allocation beyond the declared (and
// bounded) cell count, and a peel that never emits more keys than the
// table has cells (+1 for the in-flight pop) no matter what the cells
// claim.
func FuzzIBLT(f *testing.F) {
	// A valid small table as a seed so the fuzzer starts near the
	// interesting surface.
	valid := NewTable(16, numHashes, 99)
	for fp := uint64(1); fp < 20; fp++ {
		valid.Insert(splitmix64(fp))
	}
	f.Add(valid.appendTo(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, body []byte) {
		tab, err := decodeTable(body)
		if err != nil {
			return
		}
		if len(tab.Cells) > maxCells {
			t.Fatalf("decoder accepted %d cells", len(tab.Cells))
		}
		plus, minus, _ := tab.Decode()
		if len(plus)+len(minus) > len(tab.Cells)+1 {
			t.Fatalf("peeled %d keys out of %d cells", len(plus)+len(minus), len(tab.Cells))
		}
	})
}

// FuzzPatch drives the patch applier with hostile frame bodies over a
// real local entry set: it must error or produce a verified snapshot,
// never panic or over-allocate on lying counts.
func FuzzPatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x05})
	f.Fuzz(func(t *testing.T, body []byte) {
		applyPatch(nil, body, 1)
	})
}

// FuzzEntryBody hands Reassemble one hostile entry among a real set: a
// fuzzed head replaces the fixture's, a fuzzed row joins its section.
// Decoding the body must not allocate past what its length can pay for,
// and the set must be refused or produce a snapshot that decomposes and
// reassembles to the same artifact bytes — never panic.
func FuzzEntryBody(f *testing.F) {
	base, err := Decompose(newFixture(f, 1, 8).snapshot(f))
	if err != nil {
		f.Fatal(err)
	}
	seeded := map[byte]bool{}
	for _, e := range base {
		if !seeded[e.Kind] {
			seeded[e.Kind] = true
			f.Add(e.Kind, e.Body)
		}
	}
	f.Add(snapshot.KindCand, []byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(byte(99), []byte{1})
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		new(snapshot.Snapshot).AddRecord(kind, body)
		runtime.ReadMemStats(&after)
		// The constant absorbs what the fuzz engine's own goroutines
		// allocate meanwhile (TotalAlloc is process-wide).
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(body)+1<<16); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(body), grew, limit)
		}
		entries := []Entry{entryOf(kind, body)}
		for _, e := range base {
			if e.Kind != kind || kind > snapshot.KindTopK {
				entries = append(entries, e)
			}
		}
		first, err := Reassemble(entries)
		if err != nil {
			return
		}
		again, err := Decompose(first)
		if err != nil {
			return // the fuzzed row duplicated a fixture row
		}
		second, err := Reassemble(again)
		if err != nil {
			t.Fatalf("re-decomposed entry set rejected: %v", err)
		}
		if !bytes.Equal(mustBytes(t, first), mustBytes(t, second)) {
			t.Fatal("decompose → reassemble is not a fixed point")
		}
	})
}
