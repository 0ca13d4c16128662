package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	activeiter "github.com/activeiter/activeiter"
)

// TestGenerateTiny: `datagen -preset tiny` writes a pair the library
// reads back, to -out and to stdout alike, and -seed changes it.
func TestGenerateTiny(t *testing.T) {
	out := filepath.Join(t.TempDir(), "pair.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-preset", "tiny", "-out", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-out run also wrote %d bytes to stdout", stdout.Len())
	}
	if !strings.Contains(stderr.String(), "anchors=") {
		t.Errorf("summary missing from stderr: %q", stderr.String())
	}
	file, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := activeiter.ReadAlignedJSON(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if len(pair.Anchors) == 0 {
		t.Fatal("generated pair has no anchors")
	}

	if err := run([]string{"-preset", "tiny"}, &stdout, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), file) {
		t.Error("stdout output differs from the -out file for the same preset")
	}
	var reseeded bytes.Buffer
	if err := run([]string{"-preset", "tiny", "-seed", "99"}, &reseeded, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(reseeded.Bytes(), file) {
		t.Error("-seed 99 generated the preset-seed pair")
	}
}

// TestBadInvocations is the command-line error contract: each bad
// invocation fails with a message naming the problem and writes no
// dataset.
func TestBadInvocations(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown preset", []string{"-preset", "bogus"}, `unknown preset "bogus"`},
		{"unwritable out", []string{"-preset", "tiny", "-out", filepath.Join(t.TempDir(), "no", "such", "dir.json")}, "no such file"},
		{"unknown flag", []string{"-frobnicate"}, "not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("args %q accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("args %q: error %q does not mention %q", tc.args, err, tc.wantErr)
			}
			if stdout.Len() != 0 {
				t.Errorf("args %q: failed run wrote %d bytes of dataset", tc.args, stdout.Len())
			}
		})
	}
}
