package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one launched spinflow process. Its stderr is read to the end
// by a goroutine that keeps a tail for diagnostics and picks out the
// telemetry address the process announces there.
type proc struct {
	name      string
	cmd       *exec.Cmd
	telemetry string // host:port of /metrics, /debug/pprof
	stdout    *bufio.Scanner

	mu   sync.Mutex
	tail []string
	done chan struct{} // closed when stderr hits EOF
}

const (
	procStartTimeout = 20 * time.Second
	procStopTimeout  = 20 * time.Second
)

// startProc launches bin with args and waits until the process announced
// its telemetry address on stderr ("... telemetry on http://ADDR/metrics").
func startProc(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// If the benchmark dies, its children die with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.stdout = bufio.NewScanner(stdout)
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	addr := make(chan string, 1) // the one announcement; never blocks the reader
	go p.readStderr(stderr, addr)
	select {
	case p.telemetry = <-addr:
		return p, nil
	case <-p.done:
	case <-time.After(procStartTimeout):
	}
	p.kill()
	return nil, fmt.Errorf("%s did not announce its telemetry address:\n%s", name, p.log())
}

func (p *proc) readStderr(r io.Reader, addr chan<- string) {
	defer close(p.done)
	sc := bufio.NewScanner(r)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		if !announced {
			if _, rest, ok := strings.Cut(line, "telemetry on http://"); ok {
				addr <- strings.TrimSuffix(rest, "/metrics")
				announced = true
			}
		}
		p.mu.Lock()
		p.tail = append(p.tail, line)
		if len(p.tail) > 50 {
			p.tail = p.tail[1:]
		}
		p.mu.Unlock()
	}
}

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

func (p *proc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// firstLine reads the process's first stdout line (a worker prints its
// control address there).
func (p *proc) firstLine() (string, error) {
	line := make(chan string, 1)
	go func() {
		if p.stdout.Scan() {
			line <- strings.TrimSpace(p.stdout.Text())
		}
		close(line)
	}()
	select {
	case l, ok := <-line:
		if !ok {
			return "", fmt.Errorf("%s exited before printing its address:\n%s", p.name, p.log())
		}
		return l, nil
	case <-time.After(procStartTimeout):
		return "", fmt.Errorf("%s printed no address", p.name)
	}
}

// stop sends SIGINT and waits for a clean exit: status 0 within
// procStopTimeout. A process that does not exit in time is killed and
// reported.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
		return fmt.Errorf("signalling %s: %w", p.name, err)
	}
	select {
	case <-p.done:
	case <-time.After(procStopTimeout):
		p.kill()
		return fmt.Errorf("%s did not exit within %v of SIGINT:\n%s", p.name, procStopTimeout, p.log())
	}
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("%s exited uncleanly: %v\n%s", p.name, err, p.log())
	}
	return nil
}

// kill ends the process without ceremony and reaps it.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // an already exited process is fine
	<-p.done
	_ = p.cmd.Wait() // the exit status of a killed process carries no news
}

// freePort asks the kernel for an unused loopback port. spinflow serve
// does not report the port it bound, so the benchmark picks one.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}
