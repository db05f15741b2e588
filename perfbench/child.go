package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one frapp-server child process.
type serverProc struct {
	cmd     *exec.Cmd
	args    []string
	base    string // http://addr of the API listener
	ops     string // http://addr of the ops listener
	done    chan struct{}
	waitErr error
	log     *os.File
}

var (
	childMu  sync.Mutex
	children = map[*serverProc]bool{}
)

// startServer launches frapp-server with the given extra flags on fresh
// loopback ports and returns once /readyz answers 200. A child that
// exits before it is ready (another process can take a port between
// freePort and the child's bind) is retried on new ports.
func startServer(cfg *config, logName string, extra ...string) (*serverProc, error) {
	var err error
	for range 3 {
		var p *serverProc
		if p, err = startOnce(cfg, logName, extra...); err == nil {
			return p, nil
		}
		fmt.Fprintln(os.Stderr, "perfbench: server start:", err)
	}
	return nil, err
}

func startOnce(cfg *config, logName string, extra ...string) (*serverProc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	opsAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-ops-addr", opsAddr}, extra...)
	logf, err := os.OpenFile(cfg.workdir+"/"+logName, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.server, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting frapp-server: %w", err)
	}
	p := &serverProc{cmd: cmd, args: args, base: "http://" + addr, ops: "http://" + opsAddr, done: make(chan struct{}), log: logf}
	childMu.Lock()
	children[p] = true
	childMu.Unlock()
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	if err := p.awaitReady(60 * time.Second); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// awaitReady polls until /readyz answers 200 and the API listener
// answers too: the server reports ready once its state is recovered,
// which can be before the API port is bound.
func (p *serverProc) awaitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, url := range []string{p.ops + "/readyz", p.base + "/v1/stats"} {
		for !p.answers(url) {
			select {
			case <-p.done:
				return fmt.Errorf("frapp-server exited before ready: %v (see %s)", p.waitErr, p.log.Name())
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("frapp-server not ready after %s", limit)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// answers reports whether GET url returns 200.
func (p *serverProc) answers(url string) bool {
	resp, err := http.Get(url)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
}

// stop shuts the server down gracefully (SIGTERM), falling back to
// SIGKILL, and waits for it to exit.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.forget()
}

// kill sends SIGKILL — the crash the durability check simulates — and
// waits for the process to be gone.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
	p.forget()
}

func (p *serverProc) forget() {
	childMu.Lock()
	delete(children, p)
	childMu.Unlock()
	p.log.Close()
}

// stopAllChildren kills every child still running.
func stopAllChildren() {
	childMu.Lock()
	live := make([]*serverProc, 0, len(children))
	for p := range children {
		live = append(live, p)
	}
	childMu.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// stopOnSignal kills the children and exits when the benchmark itself
// is interrupted.
func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		stopAllChildren()
		os.Exit(130)
	}()
}
