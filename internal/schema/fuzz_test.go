package schema

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParsePath exercises the meta path DSL parser with arbitrary
// inputs: it must never panic, accepted inputs must round-trip through
// Notation → ParsePath to an identical path, and their canonical form
// keeps the path's endpoints and Validate verdict and is its own
// canonical form.
func FuzzParsePath(f *testing.F) {
	seeds := []string{
		"user(1) -follow-> user(1) <-anchor-> user(2) <-follow- user(2)",
		"user(1) -write-> post(1) -at-> timestamp <-at- post(2) <-write- user(2)",
		"user(1) <-follow- user(1)",
		"post(1) -at-> timestamp",
		"",
		"user(1)",
		"user(3) -x-> y",
		"a <-b-> c",
		"a -- b",
		"x( -q-> z)",
		"user(1) -follow-> user(1) extra",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := ParsePath(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if len(p.Edges) == 0 {
			return // degenerate single-node parse
		}
		// Round trip: the notation must re-parse to the same path. The
		// notation uses " ; " separators between edges; normalize to the
		// DSL's node-arrow-node stream by re-rendering each edge.
		var parts []string
		for k, e := range p.Edges {
			n := e.Notation()
			if k > 0 {
				// Drop the repeated source node.
				fields := strings.Fields(n)
				n = strings.Join(fields[1:], " ")
			}
			parts = append(parts, n)
		}
		rendered := strings.Join(parts, " ")
		p2, err := ParsePath(rendered)
		if err != nil {
			t.Fatalf("re-parse of rendered notation %q failed: %v", rendered, err)
		}
		if p2.Notation() != p.Notation() {
			t.Fatalf("round trip changed path: %q vs %q", p2.Notation(), p.Notation())
		}
		c := Canonical(p)
		if c.Source() != p.Source() || c.Sink() != p.Sink() {
			t.Fatalf("canonical form of %q runs %s→%s, the path %s→%s", p.Notation(), c.Source(), c.Sink(), p.Source(), p.Sink())
		}
		sch := SocialSchema()
		if pe, ce := p.Validate(sch), c.Validate(sch); (pe == nil) != (ce == nil) {
			t.Fatalf("canonical form of %q changed the Validate verdict: %v, then %v", p.Notation(), pe, ce)
		}
		if !reflect.DeepEqual(Canonical(c), c) {
			t.Fatalf("Canonical is not idempotent on %q", c.Notation())
		}
	})
}
