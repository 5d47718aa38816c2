package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/scenario"
)

// serveMode runs the two child roles of the bench binary: "-worker" serves
// the shard protocol over stdin/stdout (the Shard executor's subprocess
// transport), "-serve" serves it over TCP loopback. Both exit when their
// stdin closes, so a child cannot outlive a parent that dies without
// reaping it. served is false when args select neither role.
func serveMode(args []string) (served bool, code int) {
	if len(args) == 0 || (args[0] != "-worker" && args[0] != "-serve") {
		return false, 0
	}
	var err error
	if args[0] == "-worker" {
		err = scenario.ServeWorker(os.Stdin, os.Stdout)
	} else {
		err = serveTCP()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s: %v\n", args[0], err)
		return true, 1
	}
	return true, 0
}

// serveTCP listens on a free loopback port, announces the address as the
// first line of stdout and serves worker sessions until stdin closes.
func serveTCP() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if _, err := fmt.Println(ln.Addr()); err != nil {
		ln.Close()
		return err
	}
	go func() {
		io.Copy(io.Discard, os.Stdin)
		ln.Close()
	}()
	return scenario.ServeNet(ln, scenario.NetServeOptions{})
}

// serveChild is a running "-serve" child process.
type serveChild struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

// startServe starts a "-serve" child of exe and waits for its address.
func startServe(exe string) (*serveChild, error) {
	cmd := exec.Command(exe, "-serve")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start serve child: %w", err)
	}
	c := &serveChild{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("serve child announced no address: %w", err)
	}
	c.addr = strings.TrimSpace(line)
	return c, nil
}

// stop closes the child's stdin, which ends it, and reaps it; a child that
// has not exited after five seconds is killed first.
func (c *serveChild) stop() {
	c.stdin.Close()
	done := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
}

// cpuTime reads the user + system CPU time getrusage reports for who
// (RUSAGE_SELF, RUSAGE_CHILDREN for the reaped children, or RUSAGE_THREAD
// for the calling thread).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only a bad who can fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// children lists the live (or unreaped) child processes of this process,
// from /proc.
func children() []int {
	dirs, _ := os.ReadDir("/proc") // no /proc: no children can be listed
	self := strconv.Itoa(os.Getpid())
	var out []int
	for _, d := range dirs {
		pid, err := strconv.Atoi(d.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", d.Name(), "stat"))
		if err != nil {
			continue // exited while listing
		}
		// pid (comm) state ppid …, where comm may hold spaces and parentheses.
		f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(f) > 1 && f[1] == self {
			out = append(out, pid)
		}
	}
	return out
}

// resetPeakRSS restarts the peak resident set (VmHWM) of this process and
// of its live children from their current resident set, so the next
// peakRSS covers only what runs in between.
func resetPeakRSS() error {
	for _, p := range append([]string{"self"}, pidNames(children())...) {
		if err := os.WriteFile(filepath.Join("/proc", p, "clear_refs"), []byte("5"), 0); err != nil {
			return fmt.Errorf("reset peak RSS: %w", err)
		}
	}
	return nil
}

// peakRSS returns the peak resident set of this process and the largest
// one among its live children since the last resetPeakRSS, in bytes.
// RUSAGE_CHILDREN cannot stand in for the children's: its maximum also
// covers every child reaped before this program was exec'd, such as the
// compiler that built it.
func peakRSS() (self, child int64, err error) {
	if self, err = vmHWM("self"); err != nil {
		return 0, 0, err
	}
	for _, p := range pidNames(children()) {
		if hwm, err := vmHWM(p); err == nil { // a child may exit while being read
			child = max(child, hwm)
		}
	}
	return self, child, nil
}

func pidNames(pids []int) []string {
	out := make([]string, len(pids))
	for i, pid := range pids {
		out[i] = strconv.Itoa(pid)
	}
	return out
}

// vmHWM reads the VmHWM line of /proc/<p>/status, in bytes.
func vmHWM(p string) (int64, error) {
	status, err := os.ReadFile(filepath.Join("/proc", p, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", p)
}
