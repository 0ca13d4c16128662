package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the module root, so
// the benchmark finds ./cmd and writes bench/out whether it was started
// by `go run ./bench` at the root or by `go test` inside bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run the benchmark from a checkout of the repository")
		}
		dir = parent
	}
}

// buildBinaries compiles the named commands (cmd/<name>) into the
// checkout's .bench_build/bin and returns that directory. The go build
// cache makes every call after the first an up-to-date check, so each
// set-up repeat pays the same fraction of a second.
func buildBinaries(ctx context.Context, root string, names ...string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return bin, nil
}

// gomaxprocs is the benchmark's CPU budget — newEnv clamped it to
// min(NumCPU, 4) — and so the cap on load-generator connections and the
// setting every spawned server runs at.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// serverProc is one spawned alignd or alignr.
type serverProc struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port the server reported listening on
	done chan struct{}
}

// startServer launches bin with args, waits for the stdout line
// carrying marker ("… on <addr>") and returns once the address is
// known. The caller owns the process and stops it (the fixture's close
// does, on every exit path). GOMAXPROCS is pinned so servers run at the
// benchmark's recorded setting; Pdeathsig has the kernel kill the child
// even if the benchmark itself is SIGKILLed by a driver timeout.
func startServer(ctx context.Context, marker, bin string, args ...string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{name: filepath.Base(bin), cmd: cmd, done: make(chan struct{})}

	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); !sent && strings.Contains(line, marker) && i >= 0 {
				addrCh <- strings.TrimSpace(line[i+4:])
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
		_ = cmd.Wait() // exit status of a killed server carries no information
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			return nil, fmt.Errorf("%s exited before reporting its address", p.name)
		}
		p.addr = addr
		return p, nil
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report its address within 20s", p.name)
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
}

// stop kills the process and waits until it has been reaped.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
}

// waitReady polls url until it answers 200.
func waitReady(ctx context.Context, client *http.Client, url string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 20s (last error: %v)", url, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// cpuSelfAndReaped returns the user+system CPU seconds of this process
// plus every child already waited for (the `activeiter -worker`
// subprocesses the distributed facade spawns and reaps per op).
func cpuSelfAndReaped() float64 {
	total := 0.0
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			total += tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		}
	}
	return total
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// clockTick is the kernel's USER_HZ; Linux fixes it at 100 on every
// architecture Go supports.
const clockTick = 100

// cpuOfPid reads a live process's user+system CPU seconds from
// /proc/<pid>/stat.
func cpuOfPid(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields resume after
	// the closing parenthesis.
	s := string(b)
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+1:]
	}
	f := strings.Fields(s)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTick
}

// peakRSSMB reads VmHWM (peak resident set) of pid, or of this process
// for pid 0, in MB.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts this process's VmHWM at its current resident
// set, so that peakRSSMB(0) read after an op is that op's peak and the
// run can report the median over ops instead of the one worst moment of
// the whole run. A kernel that refuses leaves VmHWM the lifetime peak,
// which every op then reads alike.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// childPeakRSSMB scans /proc for live children of this process whose
// command name is comm and returns the largest VmHWM among them. The
// distributed facade owns its worker subprocesses, so sampling /proc
// while an op runs is the only outside view of their memory.
func childPeakRSSMB(comm string) float64 {
	self := os.Getpid()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	best := 0.0
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue
		}
		s := string(b)
		open, end := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
		if open < 0 || end < open || s[open+1:end] != comm {
			continue
		}
		f := strings.Fields(s[end+1:])
		if len(f) < 2 {
			continue
		}
		if ppid, _ := strconv.Atoi(f[1]); ppid != self {
			continue
		}
		if mb := peakRSSMB(pid); mb > best {
			best = mb
		}
	}
	return best
}
