package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	activeiter "github.com/activeiter/activeiter"
)

// writePair writes the tiny preset as a datagen-format JSON file.
func writePair(t *testing.T, dir string) string {
	t.Helper()
	pair, err := activeiter.GenerateDataset(activeiter.TinyDataset())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := activeiter.WriteAlignedJSON(pair, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "pair.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAlignDataToSnapshot drives the command's whole offline path:
// datagen-format JSON in, an active run, a serving artifact out that
// the library opens with at least one match.
func TestAlignDataToSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "a.snap")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-data", writePair(t, dir), "-budget", "5", "-train-frac", "0.25", "-save-snapshot", snap}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\nstderr: %s", err, stderr.String())
	}
	for _, want := range []string{"queries spent: 5", "F1=", "snapshot: wrote " + snap, "predicted "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	s, err := activeiter.OpenSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Matches) == 0 {
		t.Error("snapshot carries no matches")
	}
	if s.Meta.Facade != activeiter.SnapshotMonolithic || s.Meta.Budget != 5 {
		t.Errorf("provenance: facade %q budget %d", s.Meta.Facade, s.Meta.Budget)
	}
}

// TestBadInvocations is the command-line error contract: each bad
// invocation fails with a message naming the problem before any
// training output.
func TestBadInvocations(t *testing.T) {
	dir := t.TempDir()
	notJSON := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(notJSON, []byte("definitely not a pair"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown preset", []string{"-preset", "bogus"}, `unknown preset "bogus"`},
		{"unknown strategy", []string{"-preset", "tiny", "-strategy", "bogus"}, `unknown strategy "bogus"`},
		{"unreadable data", []string{"-data", filepath.Join(dir, "nope.json")}, "no such file"},
		{"corrupt data", []string{"-data", notJSON}, "invalid character"},
		{"negative budget", []string{"-preset", "tiny", "-budget", "-1"}, "negative Budget"},
		{"unknown flag", []string{"-frobnicate"}, "not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("args %q accepted; stdout: %s", tc.args, stdout.String())
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("args %q: error %q does not mention %q", tc.args, err, tc.wantErr)
			}
			if stdout.Len() != 0 {
				t.Errorf("args %q: failed run printed results:\n%s", tc.args, stdout.String())
			}
		})
	}
}
