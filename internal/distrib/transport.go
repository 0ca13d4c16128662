package distrib

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os/exec"
	"sync"
	"time"

	"github.com/activeiter/activeiter/internal/retry"
)

// Transport produces worker connections for the coordinator. Dial is
// called lazily, once per worker slot (plus once per retry that burned
// a connection), and may be called concurrently.
//
// Three implementations ship: Loopback (in-process goroutine — tests,
// benchmarks, and the degenerate single-machine case), Exec (stdio
// pipes to a spawned worker subprocess — one machine, many processes)
// and TCP (remote workers listening with ListenAndServe — many
// machines).
type Transport interface {
	Dial() (io.ReadWriteCloser, error)
}

// Loopback serves every dialed connection with an in-process worker
// goroutine over a synchronous pipe. The worker still speaks the full
// wire protocol — loopback runs exercise the seed handshake,
// serialization and reconciliation end to end, minus process isolation
// (and minus the seed body: the worker shares the coordinator's seed
// cache).
type Loopback struct{}

// loopbackConn tags the coordinator half so Close also reaps the
// worker goroutine (closing the pipe makes Serve return io.EOF).
type loopbackConn struct {
	net.Conn
	done chan struct{}
}

func (c *loopbackConn) Close() error {
	err := c.Conn.Close()
	<-c.done
	return err
}

// Dial implements Transport.
func (Loopback) Dial() (io.ReadWriteCloser, error) {
	here, there := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer there.Close()
		// The coordinator observes worker death through the broken
		// stream; the error itself is not reachable from a real remote
		// worker either.
		_ = Serve(there)
	}()
	return &loopbackConn{Conn: here, done: done}, nil
}

// Exec spawns one worker subprocess per connection and speaks the wire
// protocol over its stdin/stdout. The command must run the worker serve
// loop on its stdio (cmd/activeiter -worker does).
type Exec struct {
	Cmd  string
	Args []string
	// Env is the child environment; nil inherits the parent's.
	Env []string
	// Stderr receives the worker's stderr; nil discards it.
	Stderr io.Writer
	// ShutdownGrace overrides how long Close waits for the worker to
	// exit after stdin closes before killing it; zero means
	// execShutdownGrace. Tests shrink it to prove the reap path without
	// waiting out the production grace.
	ShutdownGrace time.Duration
}

// execConn bundles the child's pipes; Close tears the process down.
type execConn struct {
	io.WriteCloser // child stdin
	io.Reader      // child stdout
	cmd            *exec.Cmd
	grace          time.Duration
}

// execShutdownGrace is how long Close waits for a worker process to
// exit on its own after stdin closes before killing it.
const execShutdownGrace = 5 * time.Second

func (c *execConn) Close() error {
	c.WriteCloser.Close() // EOF on the child's stdin ends its serve loop
	// A worker torn down mid-stream can be blocked in write(2) on a full
	// stdout pipe nobody reads anymore; os/exec only closes its
	// StdoutPipe after the process exits, so an unconditional Wait could
	// hang forever. Give the child a grace period, then kill it.
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			// A worker killed mid-job exits non-zero; the coordinator has
			// already decided to retry, so surface nothing fatal.
			return fmt.Errorf("distrib: worker process: %w", err)
		}
		return nil
	case <-time.After(c.grace):
		c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("distrib: worker process killed after %v shutdown grace", c.grace)
	}
}

// Dial implements Transport.
func (t *Exec) Dial() (io.ReadWriteCloser, error) {
	cmd := exec.Command(t.Cmd, t.Args...)
	cmd.Env = t.Env
	cmd.Stderr = t.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("distrib: start worker %q: %w", t.Cmd, err)
	}
	grace := t.ShutdownGrace
	if grace <= 0 {
		grace = execShutdownGrace
	}
	return &execConn{WriteCloser: stdin, Reader: stdout, cmd: cmd, grace: grace}, nil
}

// TCP dials remote workers round-robin across the given addresses. Each
// address should run ListenAndServe (cmd/activeiter -worker-listen).
//
// The transport scores worker health: the coordinator reports every
// shard attempt's outcome through ReportWorker, and an address whose
// consecutive-failure streak reaches quarantineAfter is skipped by Dial
// for quarantineCooldown — a flapping worker stops eating retries while
// the healthy ones carry the run. Quarantine yields to availability:
// when every address is benched, Dial proceeds with the scheduled one
// anyway rather than deadlocking the run.
type TCP struct {
	Addrs []string

	mu     sync.Mutex
	next   int
	health *healthBoard
}

// NewTCP builds a TCP transport over the worker addresses.
func NewTCP(addrs ...string) *TCP {
	return &TCP{Addrs: addrs}
}

// board lazily builds the health scoreboard under t.mu.
func (t *TCP) board() *healthBoard {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.health == nil {
		t.health = newHealthBoard(time.Now)
	}
	return t.health
}

// ReportWorker records a shard attempt's outcome against the worker's
// address. The coordinator calls it through a transport interface probe
// after every attempt on a conn that exposes WorkerID.
func (t *TCP) ReportWorker(id string, ok bool) {
	t.board().report(id, ok)
}

// tcpConn tags a worker connection with its address so the coordinator
// can attribute outcomes to the right worker.
type tcpConn struct {
	net.Conn
	addr string
}

// WorkerID returns the worker's address for health attribution.
func (c *tcpConn) WorkerID() string { return c.addr }

// Dial implements Transport: round-robin over the addresses, skipping
// quarantined workers unless every address is benched.
func (t *TCP) Dial() (io.ReadWriteCloser, error) {
	if len(t.Addrs) == 0 {
		return nil, fmt.Errorf("distrib: TCP transport has no worker addresses")
	}
	board := t.board()
	t.mu.Lock()
	addr := t.Addrs[t.next%len(t.Addrs)]
	t.next++
	for skipped := 0; board.quarantined(addr) && skipped < len(t.Addrs)-1; skipped++ {
		addr = t.Addrs[t.next%len(t.Addrs)]
		t.next++
	}
	t.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		// A refused dial is itself a health signal — without it a downed
		// worker is never benched because no conn exists to attribute
		// failures to.
		board.report(addr, false)
		return nil, fmt.Errorf("distrib: dial worker %s: %w", addr, err)
	}
	return &tcpConn{Conn: conn, addr: addr}, nil
}

// ListenAndServe accepts worker connections on addr and serves each in
// its own goroutine until the listener fails. ready (optional) receives
// the bound address once listening — callers binding ":0" learn the
// port.
//
// The accept loop is hardened for long-lived workers: transient accept
// errors (EMFILE, ECONNABORTED) back off exponentially (retry.Delay,
// reset by the next accept)
// instead of killing the listener, and a panicking connection handler
// takes down only its own connection.
func ListenAndServe(addr string, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	failures := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Transient accept failure: one bad accept must not kill a
				// worker serving other coordinators. Sleep and retry, capped.
				failures++
				backoff := retry.Delay(failures, 0)
				logger.Warn("accept failed, retrying", "err", err, "backoff", backoff)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		failures = 0
		go func() {
			defer conn.Close()
			defer func() {
				// A malformed job must not take the whole worker process
				// down with it: contain the panic to this connection.
				if r := recover(); r != nil {
					logger.Error("worker connection panic", "panic", fmt.Sprint(r))
				}
			}()
			if err := Serve(conn); err != nil && err != io.EOF {
				logger.Warn("worker connection failed", "err", err)
			}
		}()
	}
}
