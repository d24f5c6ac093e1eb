package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
)

// keepWarm is a helper process that keeps every CPU of the host out of its
// idle state for the length of one pass: one thread per CPU at the lowest
// scheduling priority (nice 19), spinning. The kernel runs such a thread only
// when the CPU has nothing else to do and takes the CPU away from it the
// moment a thread of the benchmark wakes, so it costs the program under test
// about 1.4% of a contended CPU — and the CPU it wakes on is running, with
// warm caches, not halted.
//
// Why: on a virtual machine an idle vCPU halts, the hypervisor runs something
// else on the core, and the next wake-up pays for getting the core back. An
// open loop at 12% load wakes up thousands of times a second, so its latency
// measured the hypervisor as much as the program: over ten alternating pairs
// of runs of uplink_steady the median latency read 0.38–0.52 ms without the
// helper (quartiles 13.5% of the median apart) and 0.37–0.41 ms with it
// (5.8%); CPU per item 9.9% against 7.1% (BASELINE.md, README.md
// "Steadying"). It does not make set-up faster or the host's slow stretches
// shorter.
//
// The helper's CPU time is not the benchmark's: getrusage(RUSAGE_SELF) and
// the simulator child's own times do not include it.
type keepWarm struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// spinFlag makes the benchmark binary run as the helper.
const spinFlag = "-spin-until-stdin-closes"

func startKeepWarm() (*keepWarm, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, spinFlag)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("keep-warm helper: %w", err)
	}
	return &keepWarm{cmd: cmd, stdin: stdin}, nil
}

// Stop ends the helper and waits for it.
func (k *keepWarm) Stop() error {
	if err := k.stdin.Close(); err != nil {
		return err
	}
	if err := k.cmd.Wait(); err != nil {
		return fmt.Errorf("keep-warm helper: %w", err)
	}
	return nil
}

// spinUntilStdinCloses is the helper's main: it spins until the parent closes
// the pipe — or dies, which closes it too, so the helper cannot outlive it.
func spinUntilStdinCloses() error {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1) // one more than the spinners, for the reader below
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The nice value is per thread on Linux; the goroutine keeps this
			// thread to itself until it returns.
			runtime.LockOSThread()
			if errs[i] = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); errs[i] != nil {
				return
			}
			for !stop.Load() {
			}
		}()
	}
	_, err := io.Copy(io.Discard, os.Stdin)
	stop.Store(true)
	wg.Wait()
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	return err
}
