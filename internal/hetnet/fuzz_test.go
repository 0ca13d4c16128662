package hetnet

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadAlignedJSON feeds arbitrary bytes to the pair loader — the
// decoder `activeiter -data` reads from disk. It must never panic, never
// allocate more than a fixed multiple of what it was given, and whatever
// it accepts must pass Validate and reach a fixed point: written back and
// read again, it writes the same bytes.
func FuzzReadAlignedJSON(f *testing.F) {
	g1, g2 := NewSocialNetwork("g1"), NewSocialNetwork("g2")
	for _, id := range []string{"a", "b"} {
		g1.AddNode(User, id)
		g2.AddNode(User, id)
	}
	p1 := g1.AddNode(Post, "p")
	l1 := g1.AddNode(Location, "nyc")
	_ = g1.AddLink(Follow, 0, 1)
	_ = g1.AddLink(Write, 1, p1)
	_ = g1.AddLink(Checkin, p1, l1)
	pair := NewAlignedPair(g1, g2)
	_ = pair.AddAnchor(0, 1)
	var buf bytes.Buffer
	_ = pair.WriteJSON(&buf)
	f.Add(buf.Bytes())
	net := `{"name":"x","nodes":{"user":["a"]},"links":{}}`
	f.Add([]byte(`{"g1":` + net + `,"g2":` + net + `,"anchorType":"user","anchors":[[0,0]]}`))
	f.Add([]byte(`{"g1":` + net + `,"g2":` + net + `,"anchors":[[0,0],[0,0]]}`))
	f.Add([]byte(`{"g1":{"nodes":{"user":["a","a"]}},"g2":{}}`))
	f.Add([]byte(`{"g1":{"nodes":{},"links":{"follow":{"src":"user","dst":"user","from":[0],"to":[0]}}}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := ReadAlignedJSON(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The JSON decoder's buffers, maps and node tables all grow with the
		// input; the constant absorbs what the fuzz engine allocates
		// meanwhile (TotalAlloc is process-wide).
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(data)+1<<20); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted pair fails Validate: %v", err)
		}
		var first bytes.Buffer
		if err := p.WriteJSON(&first); err != nil {
			t.Fatalf("accepted pair fails WriteJSON: %v", err)
		}
		again, err := ReadAlignedJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written form of an accepted pair refused: %v", err)
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write → read → write is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
