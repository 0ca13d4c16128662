// Command alignr is the fleet routing tier: it fronts a set of alignd
// replicas, each serving one user-range shard of a split snapshot, and
// presents the monolithic alignd HTTP surface — same endpoints, same
// bytes — to clients:
//
//	alignr -listen :7610 -backends http://a:7600,http://b:7600
//
// The router discovers each backend's owned range from its /statusz
// shard block (a backend with no shard block owns the full range), so
// resharding means redeploying alignd processes, not reconfiguring the
// router. Net-1 lookups are routed to the owning shard and net-2
// reverse lookups to any replica (every shard carries the whole net-2
// read side); either way one backend's answer is proxied verbatim, and
// errors are delegated so even error bodies stay canonical.
// POST /v1/reload rolls the fleet one replica at a time, unhealthy
// first, polling each back to readiness before the next.
//
// alignr also carries the offline splitting tool:
//
//	alignr -split align.snap -split-shards 4 -split-out /srv/shards
//
// writes one shard artifact per range and prints a machine-parseable
// line per shard (path, range, epoch) for deployment scripts.
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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/activeiter/activeiter/internal/fleet"
	"github.com/activeiter/activeiter/internal/retry"
	"github.com/activeiter/activeiter/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "alignr:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	listen         string
	backends       []string
	timeout        time.Duration
	retries        int
	hedgeAfter     time.Duration
	healthInterval time.Duration
	readTimeout    time.Duration
	writeTimeout   time.Duration
	idleTimeout    time.Duration

	splitPath   string
	splitShards int
	splitRanges string
	splitOut    string
}

// parseFlags validates the command line into a config. Errors are
// user-facing: they name the flag and the fix.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("alignr", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	var backends string
	fs.StringVar(&cfg.listen, "listen", ":7610", "HTTP listen address")
	fs.StringVar(&backends, "backends", "", "comma-separated alignd base URLs to route over (required unless -split)")
	fs.DurationVar(&cfg.timeout, "timeout", 5*time.Second, "per-backend request deadline")
	fs.IntVar(&cfg.retries, "retries", 3, "attempt budget per request across a range's replicas")
	fs.DurationVar(&cfg.hedgeAfter, "hedge-after", 0, "launch a hedged read on another replica after this delay (0 disables)")
	fs.DurationVar(&cfg.healthInterval, "health-interval", 2*time.Second, "readyz/statusz probe period")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", 10*time.Second, "HTTP read timeout per request (0 disables)")
	fs.DurationVar(&cfg.writeTimeout, "write-timeout", 30*time.Second, "HTTP write timeout per response (0 disables)")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "HTTP keep-alive idle timeout (0 disables)")
	fs.StringVar(&cfg.splitPath, "split", "", "split this parent artifact into shard artifacts and exit (no serving)")
	fs.IntVar(&cfg.splitShards, "split-shards", 0, "with -split: number of even user ranges")
	fs.StringVar(&cfg.splitRanges, "split-ranges", "", `with -split: explicit boundaries "0:6,6:12" (overrides -split-shards)`)
	fs.StringVar(&cfg.splitOut, "split-out", ".", "with -split: directory for the shard artifacts")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	for _, u := range strings.Split(backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			cfg.backends = append(cfg.backends, u)
		}
	}
	if cfg.splitPath == "" {
		if len(cfg.backends) == 0 {
			return nil, errors.New("missing -backends: alignr routes over a fleet of alignd replicas (or use -split to shard an artifact)")
		}
		if cfg.retries < 1 {
			return nil, fmt.Errorf("-retries %d: need at least one attempt", cfg.retries)
		}
		for name, d := range map[string]time.Duration{
			"timeout": cfg.timeout, "hedge-after": cfg.hedgeAfter, "health-interval": cfg.healthInterval,
			"read-timeout": cfg.readTimeout, "write-timeout": cfg.writeTimeout, "idle-timeout": cfg.idleTimeout,
		} {
			if d < 0 {
				return nil, fmt.Errorf("negative -%s %v (use 0 to disable)", name, d)
			}
		}
		if cfg.timeout == 0 || cfg.healthInterval == 0 {
			return nil, errors.New("-timeout and -health-interval must be positive")
		}
	} else {
		if cfg.splitShards <= 0 && cfg.splitRanges == "" {
			return nil, errors.New("-split needs -split-shards N or -split-ranges lo:hi,...")
		}
	}
	return cfg, nil
}

// parseRanges turns "0:6,6:12" into UserRanges (validation of tiling
// is Split's job — it owns the invariant).
func parseRanges(spec string) ([]snapshot.UserRange, error) {
	var out []snapshot.UserRange
	for _, part := range strings.Split(spec, ",") {
		lohi := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(lohi) != 2 {
			return nil, fmt.Errorf("range %q: want lo:hi", part)
		}
		lo, err := strconv.Atoi(lohi[0])
		if err != nil {
			return nil, fmt.Errorf("range %q: %w", part, err)
		}
		hi, err := strconv.Atoi(lohi[1])
		if err != nil {
			return nil, fmt.Errorf("range %q: %w", part, err)
		}
		out = append(out, snapshot.UserRange{Lo: int32(lo), Hi: int32(hi)})
	}
	return out, nil
}

// runSplit shards the parent artifact on disk and prints one
// machine-parseable line per shard for deployment scripts.
func runSplit(cfg *config, stdout io.Writer) error {
	parent, err := snapshot.OpenFile(cfg.splitPath)
	if err != nil {
		return fmt.Errorf("open %s: %w", cfg.splitPath, err)
	}
	var ranges []snapshot.UserRange
	if cfg.splitRanges != "" {
		if ranges, err = parseRanges(cfg.splitRanges); err != nil {
			return err
		}
	} else {
		ranges = snapshot.EvenRanges(len(parent.Meta.Users1), cfg.splitShards)
	}
	shards, err := snapshot.Split(parent, ranges)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.splitOut, 0o755); err != nil {
		return err
	}
	base := strings.TrimSuffix(filepath.Base(cfg.splitPath), filepath.Ext(cfg.splitPath))
	for i, sh := range shards {
		path := filepath.Join(cfg.splitOut, fmt.Sprintf("%s-shard%02d.snap", base, i))
		if err := sh.WriteFile(path); err != nil {
			return fmt.Errorf("write shard %d: %w", i, err)
		}
		si := sh.Meta.Shard
		fmt.Fprintf(stdout, "shard=%d path=%s lo=%d hi=%d epoch=%d parent_fp=%016x\n",
			i, path, si.Range.Lo, si.Range.Hi, si.Epoch, si.ParentFP)
	}
	return nil
}

// run is main minus the exit code, for the flag-validation tests.
func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if cfg.splitPath != "" {
		return runSplit(cfg, stdout)
	}

	router, err := fleet.NewRouter(cfg.backends, fleet.Options{
		Retry:          retry.Policy{Attempts: cfg.retries, Timeout: cfg.timeout},
		HedgeAfter:     cfg.hedgeAfter,
		HealthInterval: cfg.healthInterval,
	})
	if err != nil {
		return err
	}
	router.Refresh()
	router.Start()
	defer router.Stop()

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", cfg.listen, err)
	}
	srv := &http.Server{
		Handler:      router,
		ReadTimeout:  cfg.readTimeout,
		WriteTimeout: cfg.writeTimeout,
		IdleTimeout:  cfg.idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "alignr: routing %d backends on %s\n", len(cfg.backends), ln.Addr())

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "alignr: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
