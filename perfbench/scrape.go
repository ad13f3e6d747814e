package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Everything here reads state the program already exposes: /proc, the
// Prometheus text on /metrics, the runtime.MemStats block that
// /debug/pprof/heap?debug=1 prints, and the live API's view stats. The
// serving workloads read it only before and after the measured window.

// vmHWM is a process's peak resident set size in bytes, from
// /proc/<pid>/status. pid "self" is this process.
func vmHWM(pid string) (float64, error) {
	const field = "VmHWM"
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, field+":"))
		if len(f) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/status %s: %w", pid, field, err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, field)
}

// procCPU returns a process's CPU time to the microsecond: the sum of
// se.sum_exec_runtime (milliseconds) over /proc/<pid>/task/*/sched.
// Threads that already exited are not counted; Go runtimes keep theirs.
func procCPU(pid string) (time.Duration, error) {
	dir := "/proc/" + pid + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/sched")
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited since the listing
		}
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if !ok || strings.TrimSpace(k) != "se.sum_exec_runtime" {
				continue
			}
			msec, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return 0, fmt.Errorf("%s/%s/sched: %w", dir, t.Name(), err)
			}
			sum += time.Duration(msec * float64(time.Millisecond))
			found = true
			break
		}
		if !found {
			return 0, fmt.Errorf("%s/%s/sched has no se.sum_exec_runtime", dir, t.Name())
		}
	}
	return sum, nil
}

// selfCPU returns this process's user+system CPU time, to the
// microsecond (getrusage), summed over all its threads.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// hostCPU returns the machine's total and stolen CPU time so far, in
// clock ticks, from the first line of /proc/stat. Steal is time the
// hypervisor ran something else while this machine's CPUs wanted to run.
func hostCPU() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// stealMeter measures the stolen share of CPU time over a window.
type stealMeter struct{ total, steal int64 }

func startSteal() (stealMeter, error) {
	t, s, err := hostCPU()
	return stealMeter{t, s}, err
}

func (m stealMeter) share() (float64, error) {
	t, s, err := hostCPU()
	if err != nil || t == m.total {
		return 0, err
	}
	return float64(s-m.steal) / float64(t-m.total), nil
}

func httpGet(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// promSample maps a series (name plus any {labels}) to its value.
type promSample map[string]float64

// parseProm reads Prometheus text exposition: comment lines are skipped,
// every other line is "<series> <value>".
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta is after minus before for one series (missing reads as 0).
func (after promSample) delta(before promSample, series string) float64 {
	return after[series] - before[series]
}

// histMeanMs is the mean, in milliseconds, of the observations a
// spinflow_<name>_seconds histogram received between two scrapes.
func (after promSample) histMeanMs(before promSample, name string) float64 {
	n := after.delta(before, "spinflow_"+name+"_seconds_count")
	if n <= 0 {
		return 0
	}
	return after.delta(before, "spinflow_"+name+"_seconds_sum") / n * 1e3
}

// histSumMs is the total time, in milliseconds, a histogram recorded
// between two scrapes.
func (after promSample) histSumMs(before promSample, name string) float64 {
	return after.delta(before, "spinflow_"+name+"_seconds_sum") * 1e3
}

// memStats is the part of runtime.MemStats the heap profile's debug text
// prints that the benchmark uses.
type memStats struct {
	TotalAlloc uint64
	NumGC      uint32
	PauseNs    [256]uint64
}

// parseMemStats reads the "# runtime.MemStats" block of
// /debug/pprof/heap?debug=1.
func parseMemStats(text string) (memStats, error) {
	var m memStats
	seen := 0
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "TotalAlloc":
			x, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return m, fmt.Errorf("TotalAlloc: %w", err)
			}
			m.TotalAlloc = x
			seen++
		case "NumGC":
			x, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				return m, fmt.Errorf("NumGC: %w", err)
			}
			m.NumGC = uint32(x)
			seen++
		case "PauseNs":
			f := strings.Fields(strings.Trim(v, "[]"))
			if len(f) != len(m.PauseNs) {
				return m, fmt.Errorf("PauseNs has %d entries", len(f))
			}
			for i, s := range f {
				x, err := strconv.ParseUint(s, 10, 64)
				if err != nil {
					return m, fmt.Errorf("PauseNs: %w", err)
				}
				m.PauseNs[i] = x
			}
			seen++
		}
	}
	if seen != 3 {
		return m, fmt.Errorf("heap profile lacks the runtime.MemStats block")
	}
	return m, nil
}

// pauseSince sums the stop-the-world pauses of the collections after
// before. The runtime keeps the last 256 pauses in a ring indexed by
// (NumGC+255)%256, so more than 256 collections undercount.
func (m memStats) pauseSince(before memStats) time.Duration {
	var sum uint64
	n := m.NumGC - before.NumGC
	if n > 256 {
		n = 256
	}
	for i := uint32(0); i < n; i++ {
		sum += m.PauseNs[(m.NumGC-i+255)%256]
	}
	return time.Duration(sum)
}
