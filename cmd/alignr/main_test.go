package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// writeFixture writes a small valid parent snapshot and returns its
// path.
func writeFixture(t *testing.T, dir string) string {
	t.Helper()
	build := func(name string) *hetnet.Network {
		g := hetnet.NewSocialNetwork(name)
		for u := 0; u < 8; u++ {
			g.AddNode(hetnet.User, fmt.Sprintf("%s-u%d", name, u))
		}
		return g
	}
	pair := hetnet.NewAlignedPair(build("a"), build("b"))
	var pool []snapshot.PoolLink
	var matches []snapshot.Match
	for i := int32(0); i < 8; i++ {
		pool = append(pool, snapshot.PoolLink{I: i, J: i, Label: 1, Score: 0.9, HasScore: true})
		matches = append(matches, snapshot.Match{I: i, J: i, Score: 0.9, HasScore: true})
	}
	s, err := snapshot.Build(pair,
		snapshot.Meta{CreatedUnix: 1700000000, Facade: "monolithic", Notation: []string{"BIAS"}, Threshold: 0.5},
		snapshot.Model{Shards: []snapshot.ShardModel{{Shard: 0, W: []float64{1}}}},
		pool, matches, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fixture.snap")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagValidation is the command-line contract: every bad
// invocation must fail with a message naming the problem, never serve.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no backends", []string{}, "missing -backends"},
		{"empty backends", []string{"-backends", " , "}, "missing -backends"},
		{"zero retries", []string{"-backends", "http://x", "-retries", "0"}, "at least one attempt"},
		{"negative hedge", []string{"-backends", "http://x", "-hedge-after", "-1s"}, "negative -hedge-after"},
		{"zero timeout", []string{"-backends", "http://x", "-timeout", "0"}, "must be positive"},
		{"split without shape", []string{"-split", "x.snap"}, "-split-shards N or -split-ranges"},
		{"stray args", []string{"-backends", "http://x", "stray"}, "unexpected arguments"},
		{"unknown flag", []string{"-nope"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			err := run(tc.args, io.Discard, &stderr)
			if err == nil {
				t.Fatal("bad invocation ran")
			}
			if !strings.Contains(err.Error()+stderr.String(), tc.want) {
				t.Errorf("error %q (stderr %q) does not mention %q", err, stderr.String(), tc.want)
			}
		})
	}
}

// TestSplitMode shards a parent artifact on disk, checks the printed
// machine-parseable lines, and round-trips the shards through Merge.
func TestSplitMode(t *testing.T) {
	dir := t.TempDir()
	parentPath := writeFixture(t, dir)
	outDir := filepath.Join(dir, "shards")

	var stdout bytes.Buffer
	err := run([]string{"-split", parentPath, "-split-shards", "3", "-split-out", outDir}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("printed %d lines, want 3:\n%s", len(lines), stdout.String())
	}
	var shards []*snapshot.Snapshot
	for i, line := range lines {
		fields := map[string]string{}
		for _, f := range strings.Fields(line) {
			kv := strings.SplitN(f, "=", 2)
			if len(kv) == 2 {
				fields[kv[0]] = kv[1]
			}
		}
		for _, key := range []string{"shard", "path", "lo", "hi", "epoch", "parent_fp"} {
			if fields[key] == "" {
				t.Fatalf("line %d missing %s: %q", i, key, line)
			}
		}
		sh, err := snapshot.OpenFile(fields["path"])
		if err != nil {
			t.Fatalf("shard %d does not load: %v", i, err)
		}
		si := sh.Meta.Shard
		if si == nil || fmt.Sprint(si.Range.Lo) != fields["lo"] || fmt.Sprint(si.Range.Hi) != fields["hi"] {
			t.Errorf("shard %d stamp %+v does not match printed line %q", i, si, line)
		}
		shards = append(shards, sh)
	}
	merged, err := snapshot.Merge(shards)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := snapshot.OpenFile(parentPath)
	if err != nil {
		t.Fatal(err)
	}
	pfp, _ := parent.Fingerprint()
	mfp, _ := merged.Fingerprint()
	if pfp != mfp {
		t.Errorf("merge of split shards fingerprints %016x, parent %016x", mfp, pfp)
	}
}

// TestSplitExplicitRanges drives -split-ranges and the lo:hi parser's
// error paths.
func TestSplitExplicitRanges(t *testing.T) {
	dir := t.TempDir()
	parentPath := writeFixture(t, dir)
	var stdout bytes.Buffer
	err := run([]string{"-split", parentPath, "-split-ranges", "0:5,5:8", "-split-out", dir}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "lo=0 hi=5") || !strings.Contains(stdout.String(), "lo=5 hi=8") {
		t.Errorf("range lines wrong:\n%s", stdout.String())
	}

	for _, bad := range []string{"0:5", "nope", "0:x,5:8", "0:5,4:8"} {
		if err := run([]string{"-split", parentPath, "-split-ranges", bad, "-split-out", dir}, io.Discard, io.Discard); err == nil {
			t.Errorf("-split-ranges %q succeeded", bad)
		}
	}
}

// TestSplitMissingParent: a bad parent path is a clean error.
func TestSplitMissingParent(t *testing.T) {
	err := run([]string{"-split", filepath.Join(t.TempDir(), "nope.snap"), "-split-shards", "2"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "open") {
		t.Errorf("missing parent error = %v", err)
	}
}

var _ = os.Getenv
