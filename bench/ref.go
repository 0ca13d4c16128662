package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Reference ops.
//
// The reference box is a small guest on a shared host, and the host has
// phases, minutes long, in which the same work runs 15–50% slower:
// whatever leaves the guest — first-touch page faults behind fresh
// allocations, wake-ups across vCPUs behind every loopback hop — follows
// the neighbours' load, while a register-only loop repeats to ±3%. A
// phase outlasts any run, so no statistic over one run's wall times is
// steady across runs. What is steady is a ratio taken inside the run:
// each workload family interleaves its ops with a fixed reference op of
// the same kind, owned by the benchmark and untouched by the program,
// and the gated metric op_p50_vs_ref is the median over the ops of op
// time / the time of the reference op that followed. A host phase scales
// both; a change to the program moves the op alone. The wall times themselves (align_p50_s,
// req_p50_us, bench.ref_op_ms …) are reported next to it, unbounded.
//
//   - label → model: refAllocFill after every op.
//   - request → answer: one round trip to a bare net/http handler after
//     every request of the paired closed-loop phase.
//
// Both run in a child process — this binary re-executed — so that the
// reference shares the host with the program and nothing else: not its
// heap, its collector or its caches.

// echoArg or allocArg, as the only argument, turns an execution of this
// binary (the benchmark or its test binary) into the reference echo
// server or the reference allocation worker.
const (
	echoArg  = "-ref-echo"
	allocArg = "-ref-alloc"
)

// childMode is the first call of main and TestMain, ahead of flag
// parsing: it never returns in a reference child or an idle spinner
// (idle.go) and does nothing otherwise.
func childMode() {
	switch {
	case len(os.Args) == 2 && os.Args[1] == allocArg:
		// One reference op per line read, its nanoseconds answered; the
		// parent closing the pipe ends the worker.
		in := bufio.NewReader(os.Stdin)
		for {
			if _, err := in.ReadString('\n'); err != nil {
				os.Exit(0)
			}
			fmt.Println(refAllocFill().Nanoseconds())
		}
	case len(os.Args) == 2 && os.Args[1] == echoArg:
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			fmt.Println("echo on " + ln.Addr().String())
			err = http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				io.WriteString(w, "ok")
			}))
		}
		fmt.Fprintln(os.Stderr, "bench: reference echo server:", err)
		os.Exit(1)
	case len(os.Args) == 3 && os.Args[1] == spinArg:
		k, err := strconv.Atoi(os.Args[2])
		if err == nil {
			err = spinIdle(k)
		}
		fmt.Fprintln(os.Stderr, "bench: idle spinner:", err)
		os.Exit(1)
	}
}

// startEcho starts the reference echo server as a child process; the
// caller stops it.
func startEcho(ctx context.Context) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return startServer(ctx, "echo on", exe, echoArg)
}

// refWorker is the reference allocation worker, a child process that
// runs refAllocFill on demand and reports how long it took.
type refWorker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startRefWorker() (*refWorker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, allocArg)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs()))
	cmd.Stderr = io.Discard
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference worker: %w", err)
	}
	return &refWorker{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// run has the worker execute one reference op.
func (w *refWorker) run() (time.Duration, error) {
	if _, err := io.WriteString(w.in, "\n"); err != nil {
		return 0, fmt.Errorf("reference worker: %w", err)
	}
	line, err := w.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference worker: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	return time.Duration(ns), err
}

// stop ends the worker and waits until it has been reaped.
func (w *refWorker) stop() {
	w.in.Close()
	_ = w.cmd.Process.Kill() // it exits on the closed pipe; the kill covers a wedged one
	_ = w.cmd.Wait()         // a killed worker's status carries no information
}

// echoRequest is the reference round trip.
var echoRequest = request{method: http.MethodGet, path: "/", wantStatus: http.StatusOK}

var refSink uint64 // keeps refAllocFill's results alive

// refAllocFill is the label → model reference op, run in the reference
// worker: eight fresh 4 MB slices, each filled from a generator and
// folded into a map of 64k keys — large short-lived allocations and
// hashed accumulation, the two things meta-diagram counting and training
// spend their time on. It returns how long it took.
func refAllocFill() time.Duration {
	t0 := time.Now()
	for r := 0; r < 8; r++ {
		b := make([]float64, 1<<19)
		x := uint64(r + 1)
		for i := range b {
			x = x*6364136223846793005 + 1442695040888963407
			b[i] = float64(x >> 11)
		}
		m := map[int]float64{}
		for _, v := range b[:20000] {
			m[int(v)&0xffff] += v
		}
		refSink += uint64(len(m))
	}
	return time.Since(t0)
}
