package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/serve"
	"github.com/activeiter/activeiter/internal/setsync"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// writeFixture writes a small valid snapshot and returns its path.
func writeFixture(t *testing.T, dir string) string {
	t.Helper()
	build := func(name string) *hetnet.Network {
		g := hetnet.NewSocialNetwork(name)
		for u := 0; u < 4; u++ {
			g.AddNode(hetnet.User, fmt.Sprintf("%s-u%d", name, u))
		}
		return g
	}
	pair := hetnet.NewAlignedPair(build("a"), build("b"))
	s, err := snapshot.Build(pair,
		snapshot.Meta{Facade: "monolithic", Notation: []string{"BIAS"}, Threshold: 0.5},
		snapshot.Model{Shards: []snapshot.ShardModel{{Shard: 0, W: []float64{1}}}},
		[]snapshot.PoolLink{{I: 0, J: 0, Label: 1, Score: 0.9, HasScore: true}},
		[]snapshot.Match{{I: 0, J: 0, Score: 0.9, HasScore: true}},
		nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fixture.snap")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// corrupt copies the artifact and bumps/garbles it.
func mutateFixture(t *testing.T, src, dst string, mutate func([]byte) []byte) string {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestFlagValidation is the table-driven command-line contract: every
// bad invocation must fail with a message naming the problem (and a
// non-zero exit through main's error path), never serve.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	good := writeFixture(t, dir)
	versionBumped := mutateFixture(t, good, filepath.Join(dir, "vnext.snap"), func(raw []byte) []byte {
		out := append([]byte(nil), raw...)
		out[6] = snapshot.Version + 1 // version byte of the first frame
		return out
	})
	truncated := mutateFixture(t, good, filepath.Join(dir, "truncated.snap"), func(raw []byte) []byte {
		return raw[:len(raw)/3]
	})
	garbage := filepath.Join(dir, "garbage.snap")
	if err := os.WriteFile(garbage, []byte("definitely not frames"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the returned error
	}{
		{"missing snapshot flag", nil, "missing -snapshot"},
		{"nonexistent artifact", []string{"-snapshot", filepath.Join(dir, "nope.snap"), "-check"}, "no such file"},
		{"corrupt artifact", []string{"-snapshot", garbage, "-check"}, "snapshot"},
		{"truncated artifact", []string{"-snapshot", truncated, "-check"}, "truncated"},
		{"version mismatch", []string{"-snapshot", versionBumped, "-check"}, "version mismatch"},
		{"bad listen address", []string{"-snapshot", good, "-listen", "256.256.256.256:http"}, "listen"},
		{"negative k", []string{"-snapshot", good, "-k", "-2", "-check"}, "negative -k"},
		{"negative read timeout", []string{"-snapshot", good, "-read-timeout", "-1s", "-check"}, "negative -read-timeout"},
		{"negative write timeout", []string{"-snapshot", good, "-write-timeout", "-5ms", "-check"}, "negative -write-timeout"},
		{"negative idle timeout", []string{"-snapshot", good, "-idle-timeout", "-1m", "-check"}, "negative -idle-timeout"},
		{"stray arguments", []string{"-snapshot", good, "stray"}, "unexpected arguments"},
		{"unknown flag", []string{"-snapshot", good, "-frobnicate"}, "not defined"},
		{"reload path is not a flag", []string{"-snapshot", good, "-allow-reload-path", "-check"}, "not defined: -allow-reload-path"},
		{"SIGHUP reload is not a flag", []string{"-snapshot", good, "-hup-reload=false", "-check"}, "not defined: -hup-reload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("args %q accepted; stdout: %s", tc.args, stdout.String())
			}
			if !strings.Contains(err.Error(), tc.wantErr) && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("args %q: error %q does not mention %q", tc.args, err, tc.wantErr)
			}
		})
	}

	// The version-mismatch error must also name the versions and the fix.
	err := run([]string{"-snapshot", versionBumped, "-check"}, new(bytes.Buffer), new(bytes.Buffer))
	if !errors.Is(err, snapshot.ErrVersionMismatch) {
		t.Errorf("version-bumped artifact: %v is not ErrVersionMismatch", err)
	}
	if err == nil || !strings.Contains(err.Error(), "different release") {
		t.Errorf("version-mismatch error lacks remediation: %v", err)
	}

	// An artifact the previous format version actually wrote (gob
	// sections) is that same refusal, naming both versions.
	v2 := filepath.Join("..", "..", "internal", "snapshot", "testdata", "snapshot_v2.golden")
	err = run([]string{"-snapshot", v2, "-check"}, new(bytes.Buffer), new(bytes.Buffer))
	if want := fmt.Sprintf("got 2, want %d", snapshot.Version); !errors.Is(err, snapshot.ErrVersionMismatch) || !strings.Contains(err.Error(), want) {
		t.Errorf("v2 artifact: got %v, want ErrVersionMismatch naming %s", err, want)
	}
}

// TestTimeoutFlagParsing: the server-timeout flags default on (a public
// daemon should not ship timeout-less) and 0 explicitly disables.
func TestTimeoutFlagParsing(t *testing.T) {
	cfg, err := parseFlags([]string{"-snapshot", "x.snap"}, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.readTimeout != 10*time.Second || cfg.writeTimeout != 30*time.Second || cfg.idleTimeout != 2*time.Minute {
		t.Errorf("defaults = read %v write %v idle %v", cfg.readTimeout, cfg.writeTimeout, cfg.idleTimeout)
	}
	cfg, err = parseFlags([]string{"-snapshot", "x.snap", "-read-timeout", "0", "-write-timeout", "1m", "-idle-timeout", "0"}, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.readTimeout != 0 || cfg.writeTimeout != time.Minute || cfg.idleTimeout != 0 {
		t.Errorf("overrides = read %v write %v idle %v", cfg.readTimeout, cfg.writeTimeout, cfg.idleTimeout)
	}
}

// -check loads, validates, summarizes and exits cleanly without
// binding a port.
func TestCheckMode(t *testing.T) {
	dir := t.TempDir()
	good := writeFixture(t, dir)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-snapshot", good, "-check", "-listen", "definitely:not:an:addr"}, &stdout, &stderr); err != nil {
		t.Fatalf("check mode failed: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"facade=monolithic", "users=4/4", "matches=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("check summary %q missing %q", out, want)
		}
	}
}

// TestSyncFlagValidation covers the delta-sync flag contract.
func TestSyncFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"sync-only without sync-from", []string{"-snapshot", "x.snap", "-sync-only"}, "-sync-only needs -sync-from"},
		{"cutover is not a flag", []string{"-snapshot", "x.snap", "-sync-cutover", "0.1"}, "flag provided but not defined: -sync-cutover"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args, new(bytes.Buffer))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("args %q: error %v does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestSyncOnly runs the -sync-from/-sync-only path end to end against
// a live sync listener: no local artifact (full pull), then a second
// pull that is already current.
func TestSyncOnly(t *testing.T) {
	dir := t.TempDir()
	srcPath := writeFixture(t, dir)
	src, err := snapshot.OpenFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_ = setsync.Serve(c, src, setsync.Options{})
			}(conn)
		}
	}()

	dst := filepath.Join(dir, "pulled.snap")
	var stdout bytes.Buffer
	if err := run([]string{"-snapshot", dst, "-sync-from", ln.Addr().String(), "-sync-only"}, &stdout, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "setsync mode=full") {
		t.Errorf("first pull not full: %s", stdout.String())
	}
	pulled, err := snapshot.OpenFile(dst)
	if err != nil {
		t.Fatalf("pulled artifact does not load: %v", err)
	}
	sfp, _ := src.Fingerprint()
	pfp, _ := pulled.Fingerprint()
	if sfp != pfp {
		t.Errorf("pulled fingerprint %016x, source %016x", pfp, sfp)
	}

	stdout.Reset()
	if err := run([]string{"-snapshot", dst, "-sync-from", ln.Addr().String(), "-sync-only"}, &stdout, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "setsync mode=none") {
		t.Errorf("repeat pull not a no-op: %s", stdout.String())
	}
}

// TestSyncFromUnreachable: a dead peer is a clean startup error, not a
// hang or a served stale artifact.
func TestSyncFromUnreachable(t *testing.T) {
	dst := filepath.Join(t.TempDir(), "x.snap")
	err := run([]string{"-snapshot", dst, "-sync-from", "127.0.0.1:1", "-sync-only"}, new(bytes.Buffer), new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "sync from") {
		t.Errorf("unreachable peer error = %v", err)
	}
}

// TestHupLoop drives the SIGHUP handler directly through its channel:
// a signal reloads the configured artifact in place (generation 2), a
// second signal over a corrupted file keeps the old generation.
func TestHupLoop(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir)
	store := &serve.Store{}
	handler := serve.NewHandler(store, nil, serve.HandlerOptions{SnapshotPath: path})
	if _, err := handler.Reload(); err != nil {
		t.Fatal(err)
	}

	ch := make(chan os.Signal, 2)
	ch <- syscall.SIGHUP
	close(ch)
	var stdout bytes.Buffer
	hupLoop(ch, handler, &stdout) // synchronous: drains the closed channel
	if !strings.Contains(stdout.String(), "generation 2") {
		t.Errorf("hup reload output: %s", stdout.String())
	}
	if store.Current().Generation != 2 {
		t.Errorf("generation after SIGHUP = %d, want 2", store.Current().Generation)
	}

	if err := os.WriteFile(path, []byte("scribbled over"), 0o644); err != nil {
		t.Fatal(err)
	}
	ch2 := make(chan os.Signal, 1)
	ch2 <- syscall.SIGHUP
	close(ch2)
	stdout.Reset()
	hupLoop(ch2, handler, &stdout)
	if !strings.Contains(stdout.String(), "reload failed") {
		t.Errorf("corrupt hup reload output: %s", stdout.String())
	}
	if store.Current().Generation != 2 {
		t.Errorf("generation disturbed by failed SIGHUP reload: %d", store.Current().Generation)
	}
}

// TestOneLoadPath: a bad artifact fails with the same error text however
// alignd meets it — at startup, in -check, on SIGHUP and through
// POST /v1/reload (422) — and a failed reload keeps the old generation
// serving.
func TestOneLoadPath(t *testing.T) {
	dir := t.TempDir()
	good, err := os.ReadFile(writeFixture(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	versionBumped := append([]byte(nil), good...)
	versionBumped[6] = snapshot.Version + 1 // version byte of the first frame
	path := filepath.Join(dir, "served.snap")
	install := func(raw []byte) {
		t.Helper()
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name, want string
		raw        []byte
	}{
		{"corrupt", "snapshot", []byte("definitely not frames")},
		{"version mismatch", "different release", versionBumped},
	} {
		t.Run(tc.name, func(t *testing.T) {
			install(tc.raw)
			// An unusable -listen: were the artifact loaded, run would stop
			// at the bind instead of serving.
			startErr := run([]string{"-snapshot", path, "-listen", "256.256.256.256:http"}, new(bytes.Buffer), new(bytes.Buffer))
			if startErr == nil || !strings.Contains(startErr.Error(), tc.want) {
				t.Fatalf("startup error %v does not mention %q", startErr, tc.want)
			}
			want := startErr.Error()
			if err := run([]string{"-snapshot", path, "-check"}, new(bytes.Buffer), new(bytes.Buffer)); err == nil || err.Error() != want {
				t.Errorf("-check error %v, startup said %q", err, want)
			}

			install(good)
			store := &serve.Store{}
			handler := serve.NewHandler(store, nil, serve.HandlerOptions{SnapshotPath: path})
			if _, err := handler.Reload(); err != nil {
				t.Fatal(err)
			}
			install(tc.raw)
			ch := make(chan os.Signal, 1)
			ch <- syscall.SIGHUP
			close(ch)
			var stdout bytes.Buffer
			hupLoop(ch, handler, &stdout)
			if got, wantLine := stdout.String(), "alignd: SIGHUP reload failed: "+want+"\n"; got != wantLine {
				t.Errorf("SIGHUP said %q, want %q", got, wantLine)
			}

			srv := httptest.NewServer(handler)
			defer srv.Close()
			resp, err := http.Post(srv.URL+"/v1/reload", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			var answer map[string]string
			err = json.NewDecoder(resp.Body).Decode(&answer)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusUnprocessableEntity || answer["error"] != want {
				t.Errorf("POST /v1/reload = %d %v (%v), want 422 %q", resp.StatusCode, answer, err, want)
			}
			if gen := store.Current().Generation; gen != 1 {
				t.Errorf("generation %d after failed reloads, want the boot load's 1", gen)
			}
		})
	}
}
