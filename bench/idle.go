package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// spinArg, followed by a core number, turns an execution of this binary
// into an idle spinner.
const spinArg = "-idle-spin"

// schedIdle is Linux's SCHED_IDLE policy: a task that runs only when
// nothing else on its core wants to, and is preempted the moment
// anything does.
const schedIdle = 5

// idleSpinners are child processes of the benchmark, one pinned to each
// core, spinning at SCHED_IDLE through the request → answer phases.
// They take no time from the program or the load generator; they keep
// the cores from halting. On the 2-vCPU reference VM a halted vCPU is
// descheduled by the host, so every hop of a request through sleeping
// processes (client → alignr → alignd and back) first waits for the
// host to run the vCPU again: measured without spinners that wait was
// 40% of fleet_churn's open-loop median and more than half of a
// closed-loop round trip that alternates between two servers, and it
// follows the neighbours' load. It is what booting with idle=poll does,
// scoped to the measured phases.
type idleSpinners struct{ cmds []*exec.Cmd }

// startIdleSpinners starts one spinner per core this process may run on.
func startIdleSpinners() (*idleSpinners, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &idleSpinners{}
	for k := 0; k < runtime.NumCPU(); k++ {
		cmd := exec.Command(exe, spinArg, strconv.Itoa(k))
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
		if err := cmd.Start(); err != nil {
			s.stop()
			return nil, fmt.Errorf("start idle spinner: %w", err)
		}
		s.cmds = append(s.cmds, cmd)
	}
	return s, nil
}

// stop kills the spinners, waits until each has been reaped and returns
// how many were still spinning. One that had exited by itself was
// refused its pinning or its policy by the kernel; the phases then ran
// on halting cores, which the gated ratio tolerates (ref.go) and the
// run records.
func (s *idleSpinners) stop() (spinning int) {
	for _, cmd := range s.cmds {
		_ = cmd.Process.Kill() // already-exited is fine
		_ = cmd.Wait()         // the state below tells a kill from an exit
		if !cmd.ProcessState.Exited() {
			spinning++
		}
	}
	s.cmds = nil
	return spinning
}

// spinIdle is the body of idle spinner k: pin the thread to the k-th
// core of the inherited affinity mask, drop it to SCHED_IDLE and spin
// until killed. Without SCHED_IDLE the spinner would take time from the
// program, so a kernel that refuses the policy ends the spinner instead.
func spinIdle(k int) error {
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 cores
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var pin [16]uint64
	for cpu, seen := 0, 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		if seen == k {
			pin[cpu/64] = 1 << (cpu % 64)
			break
		}
		seen++
	}
	if pin == [16]uint64{} {
		return fmt.Errorf("no core %d in the affinity mask", k)
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(pin), uintptr(unsafe.Pointer(&pin))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	var prio int32 // sched_param{sched_priority: 0}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
	}
	for {
	}
}
