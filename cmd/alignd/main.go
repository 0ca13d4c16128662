// Command alignd serves a trained alignment snapshot over HTTP — the
// online half of the offline→online bridge. Train with any facade (or
// `experiments -save-snapshot`), point alignd at the artifact, and ask
// it who a user is on the other network:
//
//	alignd -snapshot align.snap -listen :7600
//
//	GET  /v1/match/{net}/{user}          matched partner (net 1 or 2; ID or index)
//	GET  /v1/candidates/{net}/{user}?k=5 top-k ranked candidates
//	POST /v1/score                       {"i","j"} pool lookup, or {"features"[,"shard"]} rescore
//	POST /v1/reload                      re-open -snapshot and swap it in
//	GET  /healthz                        liveness (always 200 while the process runs)
//	GET  /readyz                         readiness (503 until a snapshot serves and the last reload succeeded)
//	GET  /statusz                        provenance + per-endpoint QPS/latency
//
// The artifact is loaded one way — at startup, in -check, on SIGHUP and
// on POST /v1/reload (serve.Handler.Reload): decoded and indexed off to
// the side, then swapped in behind an atomic pointer, so in-flight
// requests finish on the generation they started on. To roll out a new
// artifact, rename it over the -snapshot path and signal or POST.
// SIGINT/SIGTERM drain gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/activeiter/activeiter/internal/serve"
	"github.com/activeiter/activeiter/internal/setsync"
	"github.com/activeiter/activeiter/internal/snapshot"
	"github.com/activeiter/activeiter/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "alignd:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	snapshotPath string
	listen       string
	pprofListen  string
	defaultK     int
	check        bool
	readTimeout  time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration
	syncListen   string
	syncFrom     string
	syncOnly     bool
}

// parseFlags validates the command line into a config. Errors are
// user-facing: they name the flag and the fix.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("alignd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.StringVar(&cfg.snapshotPath, "snapshot", "", "alignment snapshot artifact to serve (required; see docs/SNAPSHOT.md)")
	fs.StringVar(&cfg.listen, "listen", ":7600", "HTTP listen address")
	fs.StringVar(&cfg.pprofListen, "pprof-listen", "", "serve net/http/pprof profiles on this separate address at /debug/pprof/ (off by default; keep it off the serving port so profiles are never exposed to query clients)")
	fs.IntVar(&cfg.defaultK, "k", 10, "default candidate-list depth when a request has no ?k=")
	fs.BoolVar(&cfg.check, "check", false, "load and validate the snapshot, print a summary, and exit without serving")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", 10*time.Second, "HTTP read timeout per request (headers + body); a slow-loris client cannot pin a connection past it (0 disables)")
	fs.DurationVar(&cfg.writeTimeout, "write-timeout", 30*time.Second, "HTTP write timeout per response (0 disables)")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "HTTP keep-alive idle timeout (0 disables)")
	fs.StringVar(&cfg.syncListen, "sync-listen", "", "serve the current snapshot to reconciling peers over IBLT delta sync on this TCP address (off by default)")
	fs.StringVar(&cfg.syncFrom, "sync-from", "", "before serving, reconcile -snapshot against this peer's sync listener and persist the result (a near-identical local artifact costs O(diff) bytes, not a re-download)")
	fs.BoolVar(&cfg.syncOnly, "sync-only", false, "with -sync-from: exit after the artifact is synced instead of serving")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if cfg.snapshotPath == "" {
		return nil, errors.New("missing -snapshot: alignd serves a trained artifact (write one with experiments -save-snapshot or activeiter.WriteSnapshot)")
	}
	if cfg.syncOnly && cfg.syncFrom == "" {
		return nil, errors.New("-sync-only needs -sync-from: there is nothing to sync")
	}
	if cfg.defaultK < 0 {
		return nil, fmt.Errorf("negative -k %d", cfg.defaultK)
	}
	for name, d := range map[string]time.Duration{
		"read-timeout": cfg.readTimeout, "write-timeout": cfg.writeTimeout, "idle-timeout": cfg.idleTimeout,
	} {
		if d < 0 {
			return nil, fmt.Errorf("negative -%s %v (use 0 to disable)", name, d)
		}
	}
	return cfg, nil
}

// run is main minus the exit code, for the flag-validation tests.
func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}

	if cfg.syncFrom != "" {
		if err := syncFromPeer(cfg, stdout); err != nil {
			return err
		}
		if cfg.syncOnly {
			return nil
		}
	}

	store := &serve.Store{}
	handler := serve.NewHandler(store, nil, serve.HandlerOptions{
		DefaultK:     cfg.defaultK,
		SnapshotPath: cfg.snapshotPath,
	})
	ix, err := handler.Reload()
	if err != nil {
		return err
	}
	u1, u2, matches, pool := ix.Counts()
	fmt.Fprintf(stdout, "alignd: loaded %s: facade=%s nets=%s↔%s users=%d/%d matches=%d pool=%d top-k=%d\n",
		cfg.snapshotPath, ix.Meta().Facade, ix.Meta().Net1, ix.Meta().Net2, u1, u2, matches, pool, ix.TopK())
	if cfg.check {
		return nil
	}

	if cfg.pprofListen != "" {
		addr, err := telemetry.ListenAndServeDebug(cfg.pprofListen, telemetry.PprofMux())
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(stdout, "alignd: pprof on http://%s/debug/pprof/\n", addr)
	}

	// Bind before declaring readiness so a bad -listen is a clean error,
	// not a background surprise.
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", cfg.listen, err)
	}
	// Server-side timeouts: a serving daemon exposed to arbitrary
	// clients must not let one slow (or stuck) connection hold resources
	// forever.
	srv := &http.Server{
		Handler:      handler,
		ReadTimeout:  cfg.readTimeout,
		WriteTimeout: cfg.writeTimeout,
		IdleTimeout:  cfg.idleTimeout,
	}

	if cfg.syncListen != "" {
		syncLn, err := net.Listen("tcp", cfg.syncListen)
		if err != nil {
			return fmt.Errorf("sync listener %s: %w", cfg.syncListen, err)
		}
		defer syncLn.Close()
		go serveSync(syncLn, store, stderr)
		fmt.Fprintf(stdout, "alignd: delta sync on %s\n", syncLn.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// SIGHUP re-opens -snapshot in place: rename the new artifact over
	// the path, then signal the process.
	hupCh := make(chan os.Signal, 1)
	signal.Notify(hupCh, syscall.SIGHUP)
	defer signal.Stop(hupCh)
	go hupLoop(hupCh, handler, stdout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "alignd: serving on %s\n", ln.Addr())

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "alignd: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// syncConnTimeout is the absolute deadline on every sync connection,
// both sides: a peer that connects and then stalls must not pin a
// goroutine — and, on the serving side, a reference to that
// generation's full snapshot — indefinitely.
const syncConnTimeout = 2 * time.Minute

// syncFromPeer reconciles the configured artifact against a peer's
// sync listener and persists the result. A missing or unreadable local
// artifact degrades to a full pull — first boot and corrupt-disk
// recovery are the same code path.
func syncFromPeer(cfg *config, stdout io.Writer) error {
	have, err := snapshot.OpenFile(cfg.snapshotPath)
	if err != nil {
		have = nil
	}
	dial := func() (net.Conn, error) { return net.DialTimeout("tcp", cfg.syncFrom, 10*time.Second) }
	snap, stats, err := setsync.Pull(dial, have, setsync.Options{Timeout: syncConnTimeout})
	if err != nil {
		return fmt.Errorf("sync from %s: %w", cfg.syncFrom, err)
	}
	if stats.Mode != "none" {
		if err := snap.WriteFile(cfg.snapshotPath); err != nil {
			return fmt.Errorf("persist synced artifact: %w", err)
		}
	}
	fmt.Fprintf(stdout, "alignd: setsync mode=%s attempts=%d tx_bytes=%d rx_bytes=%d full_bytes=%d added=%d removed=%d fallback=%q\n",
		stats.Mode, stats.Attempts, stats.TxBytes, stats.RxBytes, stats.FullBytes, stats.Added, stats.Removed, stats.Fallback)
	return nil
}

// serveSync answers reconciling peers: each connection gets the
// snapshot generation current at accept time. Serve errors are a
// peer's problem, not ours — log and keep accepting.
func serveSync(ln net.Listener, store *serve.Store, stderr io.Writer) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			c.SetDeadline(time.Now().Add(syncConnTimeout))
			ix := store.Current()
			if ix == nil {
				return
			}
			if err := setsync.Serve(c, ix.Snapshot(), setsync.Options{}); err != nil {
				fmt.Fprintf(stderr, "alignd: sync peer %s: %v\n", c.RemoteAddr(), err)
			}
		}(conn)
	}
}

// hupLoop reloads the configured artifact on each SIGHUP; a bad
// artifact is reported and the old generation keeps serving. Exits
// when the channel closes.
func hupLoop(ch <-chan os.Signal, h *serve.Handler, stdout io.Writer) {
	for range ch {
		ix, err := h.Reload()
		if err != nil {
			fmt.Fprintf(stdout, "alignd: SIGHUP reload failed: %v\n", err)
			continue
		}
		fmt.Fprintf(stdout, "alignd: SIGHUP reloaded to generation %d\n", ix.Generation)
	}
}
