package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A serving workload drives `spinflow serve` with open-loop HTTP traffic:
// in-process and durable (serve-local), or sharded in memory across one
// `spinflow worker` (serve-sharded).
type servingWorkload struct{ sharded bool }

var servingWorkloads = map[string]servingWorkload{
	"serve-local":   {sharded: false},
	"serve-sharded": {sharded: true},
}

const (
	readPeriod  = time.Second / readRate
	cyclePeriod = time.Second / cycleRate
	// lateLimit is the median generator lateness beyond which a run is
	// invalid: the generator itself, not the system, fell behind its
	// schedule. The median, not a tail: while the hypervisor takes a CPU
	// away the generator's p99 lateness reaches several milliseconds,
	// though its sends as a whole stay on time.
	lateLimit = 2 * time.Millisecond
	// checkConns is how many connections the final all-vertex check uses.
	checkConns = 2
)

// system is one running serve (plus worker) with the benchmark's view.
type system struct {
	serve, worker *proc
	base          string // http://host:port of the API
	dataDir       string
	client        *http.Client // set-up, stats and scrapes
}

// newConn returns a client that keeps exactly one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// startSystem launches the processes and creates the view.
func startSystem(o options, w servingWorkload, createBody []byte) (*system, error) {
	s := &system{client: newConn()}
	args := []string{"serve", "-par", strconv.Itoa(parallelism), "-telemetry-addr", "127.0.0.1:0"}
	if w.sharded {
		wp, err := startProc("worker", o.spinflow, "worker", "-listen", "127.0.0.1:0", "-telemetry-addr", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.worker = wp
		ctl, err := wp.firstLine()
		if err != nil {
			s.stop()
			return nil, err
		}
		args = append(args, "-workers", ctl)
	} else {
		dir, err := os.MkdirTemp(o.workdir, "serve-data-")
		if err != nil {
			return nil, err
		}
		s.dataDir = dir
		args = append(args, "-data-dir", dir)
	}
	addr, err := freePort()
	if err != nil {
		s.stop()
		return nil, err
	}
	s.base = "http://" + addr
	sp, err := startProc("serve", o.spinflow, append(args, "-addr", addr)...)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.serve = sp
	if err := s.waitReady(); err != nil {
		s.stop()
		return nil, err
	}
	resp, err := s.client.Post(s.base+"/views", "application/json", bytes.NewReader(createBody))
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // the created view's stats
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			err = fmt.Errorf("POST /views: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("creating the view: %w", err)
	}
	return s, nil
}

func (s *system) waitReady() error {
	deadline := time.Now().Add(procStartTimeout)
	for time.Now().Before(deadline) {
		if _, err := httpGet(s.client, s.base+"/views"); err == nil {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("serve did not answer on %s:\n%s", s.base, s.serve.log())
}

// stop shuts serve, then the worker, down with SIGINT, requires clean
// exits, and removes the data dir.
func (s *system) stop() error {
	var errs []error
	if s.serve != nil {
		if err := s.serve.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	if s.worker != nil {
		if err := s.worker.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	if s.dataDir != "" {
		if err := os.RemoveAll(s.dataDir); err != nil {
			errs = append(errs, err)
		}
	}
	s.client.CloseIdleConnections()
	if len(errs) > 0 {
		return fmt.Errorf("stopping the system: %v", errs)
	}
	return nil
}

func (s *system) procs() []*proc {
	if s.worker != nil {
		return []*proc{s.serve, s.worker}
	}
	return []*proc{s.serve}
}

// snapshot is everything read from outside before or after the window.
type snapshot struct {
	prom  []promSample // per process, serve first
	mem   []memStats
	cpu   []time.Duration
	stats map[string]any // the view's ViewStats
}

func (s *system) snapshot(withProm bool) (snapshot, error) {
	var sn snapshot
	for _, p := range s.procs() {
		if withProm {
			b, err := httpGet(s.client, "http://"+p.telemetry+"/metrics")
			if err != nil {
				return sn, err
			}
			ps, err := parseProm(bytes.NewReader(b))
			if err != nil {
				return sn, fmt.Errorf("%s /metrics: %w", p.name, err)
			}
			sn.prom = append(sn.prom, ps)
		}
		b, err := httpGet(s.client, "http://"+p.telemetry+"/debug/pprof/heap?debug=1")
		if err != nil {
			return sn, err
		}
		m, err := parseMemStats(string(b))
		if err != nil {
			return sn, fmt.Errorf("%s heap profile: %w", p.name, err)
		}
		sn.mem = append(sn.mem, m)
		c, err := procCPU(p.pid())
		if err != nil {
			return sn, err
		}
		sn.cpu = append(sn.cpu, c)
	}
	b, err := httpGet(s.client, s.base+"/views/"+viewName+"/stats")
	if err != nil {
		return sn, err
	}
	return sn, json.Unmarshal(b, &sn.stats)
}

func (sn snapshot) stat(name string) float64 {
	v, _ := sn.stats[name].(float64)
	return v
}

// opStat is one request on the generator's clock: when it was due, when
// it went out, when its answer arrived.
type opStat struct {
	sched, sent, done time.Duration
	late              time.Duration // sent minus max(due, connection free)
}

type trafficStats struct {
	reads, mutates, flushes []opStat
	checks                  int
	acked                   int // cycles whose flush was acknowledged
}

func runServing(o options, w servingWorkload) (*result, error) {
	r := newResult()
	g := foafGraph(o.scale, o.seed)
	nCycles := int(o.seconds * cycleRate)
	tr, err := makeTraffic(g, o.seed, nCycles, nCycles*readsPerCycle)
	if err != nil {
		return nil, err
	}
	fmt.Printf("graph: V=%d E=%d, create body %d bytes, %d cycles, %d reads\n",
		g.NumVertices, len(g.Edges), len(tr.createBody), nCycles, len(tr.readDraws))

	var setupCPU, setupWall []float64
	var sys *system
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		sys, err = startSystem(o, w, tr.createBody)
		if err != nil {
			return nil, err
		}
		setupWall = append(setupWall, time.Since(start).Seconds())
		var cpu time.Duration
		for _, p := range sys.procs() {
			c, err := procCPU(p.pid())
			if err != nil {
				_ = sys.stop() // already failing
				return nil, err
			}
			cpu += c
		}
		setupCPU = append(setupCPU, cpu.Seconds())
		if i < setupReps-1 {
			if err := sys.stop(); err != nil {
				return nil, err
			}
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = sys.stop() // already failing; the first error is the one reported
		}
	}()

	before, err := sys.snapshot(o.trace)
	if err != nil {
		return nil, err
	}
	steal, err := startSteal()
	if err != nil {
		return nil, err
	}
	ts := generate(sys, tr, r)
	stolen, err := steal.share()
	if err != nil {
		return nil, err
	}
	after, err := sys.snapshot(o.trace)
	if err != nil {
		return nil, err
	}
	var rss float64
	for _, p := range sys.procs() {
		hwm, err := vmHWM(p.pid())
		if err != nil {
			return nil, err
		}
		rss += hwm
	}
	finalCheck(sys, tr, ts.acked, r)
	stopped = true
	if err := sys.stop(); err != nil {
		r.fail("%v", err)
	}

	var late []float64
	var windows []interval
	for _, ops := range [][]opStat{ts.reads, ts.mutates} {
		for _, op := range ops {
			late = append(late, ms(op.late))
			windows = append(windows, interval{op.sched, op.done})
		}
	}
	lateP50, lateP99, inflight := median(late), quantile(late, 0.99), maxOverlap(windows)
	fmt.Printf("generator: late p50 %.3f ms, p99 %.3f ms, max in flight %d\n", lateP50, lateP99, inflight)
	if time.Duration(lateP50*float64(time.Millisecond)) > lateLimit {
		return nil, fmt.Errorf("%w: generator sent late by %.2f ms at the median (limit %v)", errInvalid, lateP50, lateLimit)
	}

	fresh := freshness(ts.mutates, ts.flushes)
	query := latencies(ts.reads)
	r.set("host.steal_share", stolen, 1)
	r.set("latency.result_p50_ms", median(fresh), len(fresh))
	r.set("latency.result_p99_ms", quantile(fresh, 0.99), len(fresh))
	r.set("latency.request_p50_ms", median(query), len(query))
	r.set("latency.request_p99_ms", quantile(query, 0.99), len(query))
	var alloc float64
	var cpu time.Duration
	for i := range after.mem {
		alloc += float64(after.mem[i].TotalAlloc - before.mem[i].TotalAlloc)
		cpu += after.cpu[i] - before.cpu[i]
	}
	perCycle := float64(max(1, ts.acked))
	r.set("system.cpu_ms", ms(cpu)/perCycle, ts.acked)
	r.set("latency.setup_s", median(setupWall), len(setupWall))
	if !o.trace {
		r.set("setup_s", median(setupCPU), len(setupCPU))
		r.set("alloc_mb", alloc/1e6/perCycle, ts.acked)
		r.set("peak_rss_mb", rss/1e6, len(sys.procs()))
		return r, nil
	}
	servingLayers(r, before, after, ts)
	r.set("gen.late_p50_ms", lateP50, len(late))
	r.set("gen.late_p99_ms", lateP99, len(late))
	r.set("gen.max_inflight", float64(inflight), len(windows))
	return r, nil
}

// freshness maps each acknowledged cycle to its flush ack: the time, in
// ms, from the cycle's scheduled send to the ack after which every query
// sees its mutations. Cycle i is mutates[i]; its flush is flushes[i],
// which exists only if the mutations were accepted.
func freshness(mutates, flushes []opStat) []float64 {
	out := make([]float64, len(flushes))
	for i, f := range flushes {
		out[i] = ms(f.done - mutates[i].sched)
	}
	return out
}

// latencies returns each op's latency from its scheduled send, in ms.
func latencies(ops []opStat) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(op.done - op.sched)
	}
	return out
}

// generate runs the open-loop schedule: reads and write cycles on their
// own keep-alive connections, each request timed from when it was due.
func generate(sys *system, tr *traffic, r *result) trafficStats {
	// acked holds the vertices reads may pick: the initial graph, then
	// each cycle's new vertices once its flush is acknowledged. The
	// writer fills slots below the published count before publishing.
	total := int(tr.numVertices)
	for _, cy := range tr.cycles {
		total += len(cy.newVerts)
	}
	acked := make([]int64, total)
	for v := range tr.numVertices {
		acked[v] = v
	}
	var published atomic.Int64
	published.Store(tr.numVertices)

	var ts trafficStats
	var mu sync.Mutex // guards r from the two streams
	failf := func(format string, args ...any) {
		mu.Lock()
		r.fail(format, args...)
		mu.Unlock()
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	wait := func(due time.Duration, free time.Duration) (sent, late time.Duration) {
		if d := time.Until(t0.Add(due)); d > 0 {
			time.Sleep(d)
		}
		sent = time.Since(t0)
		return sent, sent - max(due, free)
	}
	queryURL := sys.base + "/views/" + viewName + "/query?key="

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // reads
		defer wg.Done()
		c := newConn()
		defer c.CloseIdleConnections()
		var free time.Duration
		for i, u := range tr.readDraws {
			due := time.Duration(i) * readPeriod
			sent, late := wait(due, free)
			key := acked[int(u*float64(published.Load()))]
			q, err := getQuery(c, queryURL, key)
			if err == nil && (!q.Found || q.Key != key) {
				err = fmt.Errorf("query %d: found=%v key=%d", key, q.Found, q.Key)
			}
			free = time.Since(t0)
			if err != nil {
				failf("read: %v", err)
			}
			ts.reads = append(ts.reads, opStat{sched: due, sent: sent, done: free, late: late})
		}
	}()
	go func() { // write cycles
		defer wg.Done()
		c := newConn()
		defer c.CloseIdleConnections()
		var free time.Duration
		n := tr.numVertices
		for i, cy := range tr.cycles {
			due := time.Duration(i) * cyclePeriod
			sent, late := wait(due, free)
			err := post(c, sys.base+"/views/"+viewName+"/mutations", cy.body, http.StatusAccepted)
			mdone := time.Since(t0)
			ts.mutates = append(ts.mutates, opStat{sched: due, sent: sent, done: mdone, late: late})
			if err != nil {
				failf("mutate cycle %d: %v", i, err)
				break // later cycles and the oracle assume this one landed
			}
			err = post(c, sys.base+"/views/"+viewName+"/flush", nil, http.StatusOK)
			free = time.Since(t0)
			ts.flushes = append(ts.flushes, opStat{sched: mdone, sent: mdone, done: free})
			if err != nil {
				failf("flush cycle %d: %v", i, err)
				break
			}
			ts.acked = i + 1
			for _, v := range cy.newVerts {
				acked[n] = v
				n++
			}
			published.Store(n)
			for _, ck := range cy.checks {
				q, err := getQuery(c, queryURL, ck.vertex)
				if err == nil && (!q.Found || q.B != ck.label) {
					err = fmt.Errorf("vertex %d after its flush ack: found=%v label=%d, want %d", ck.vertex, q.Found, q.B, ck.label)
				}
				if err != nil {
					failf("check: %v", err)
				}
				ts.checks++
			}
			free = time.Since(t0)
		}
	}()
	wg.Wait()
	r.attempted += len(ts.reads) + len(ts.mutates) + len(ts.flushes) + ts.checks
	return ts
}

type queryResponse struct {
	Key   int64 `json:"key"`
	Found bool  `json:"found"`
	B     int64 `json:"b"`
}

func getQuery(c *http.Client, url string, key int64) (queryResponse, error) {
	var q queryResponse
	b, err := httpGet(c, url+strconv.FormatInt(key, 10))
	if err != nil {
		return q, err
	}
	return q, json.Unmarshal(b, &q)
}

func post(c *http.Client, url string, body []byte, want int) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return nil
}

// finalCheck queries every vertex after the last flush and compares it
// with union-find over the edges the generator got acknowledged.
func finalCheck(sys *system, tr *traffic, acked int, r *result) {
	want := tr.expectedLabels(acked)
	keys := make([]int64, 0, len(want))
	for v := range want {
		keys = append(keys, v)
	}
	queryURL := sys.base + "/views/" + viewName + "/query?key="
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < checkConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn()
			defer c.CloseIdleConnections()
			for i := w; i < len(keys); i += checkConns {
				v := keys[i]
				q, err := getQuery(c, queryURL, v)
				if err == nil && (!q.Found || q.B != want[v]) {
					err = fmt.Errorf("vertex %d: found=%v label=%d, union-find says %d", v, q.Found, q.B, want[v])
				}
				mu.Lock()
				r.attempted++
				if err != nil {
					r.fail("final check: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Printf("final check: %d vertices after %d acknowledged cycles\n", len(keys), acked)
}

// servingLayers derives the per-layer metrics from the before/after
// scrapes and the generator's own timings.
func servingLayers(r *result, b, a snapshot, ts trafficStats) {
	sum := func(f func(before, after promSample) float64) float64 {
		var s float64
		for i := range a.prom {
			s += f(b.prom[i], a.prom[i])
		}
		return s
	}
	counter := func(name string) float64 {
		return sum(func(b, a promSample) float64 { return a.delta(b, "spinflow_"+name) })
	}
	serveMean := func(hist string) float64 { return a.prom[0].histMeanMs(b.prom[0], hist) }
	n := func(name string, v float64) { r.set(name, v, 1) }

	n("optimizer.plan_ms", sum(func(b, a promSample) float64 { return a.histSumMs(b, "plan_duration") }))
	n("runtime.records_shipped", counter("records_shipped"))
	n("runtime.udf_calls", counter("udf_invocations"))
	n("runtime.batches_allocated", counter("batches_allocated"))
	if x := counter("batches_allocated") + counter("batches_recycled"); x > 0 {
		n("runtime.batch_reuse_ratio", counter("batches_recycled")/x)
	}
	n("runtime.solution_updates", counter("solution_updates"))
	n("runtime.solution_accesses", counter("solution_accesses"))
	n("runtime.remote_bytes", counter("remote_bytes"))
	n("runtime.remote_batches", counter("remote_batches"))
	n("runtime.records_shipped_remote", counter("records_shipped_remote"))
	n("runtime.transport_send_ms", sum(func(b, a promSample) float64 { return a.histSumMs(b, "transport_send_duration") }))
	n("iterative.supersteps", a.stat("Supersteps")-b.stat("Supersteps"))
	n("iterative.workset_records", counter("workset_elements"))
	if x := counter("workset_elements"); x > 0 {
		n("iterative.effective_work_ratio", counter("solution_updates")/x)
	}
	n("iterative.superstep_ms", serveMean("superstep_duration"))
	n("iterative.merge_ms", serveMean("merge_duration"))

	n("live.mutate_ms", serveMean("live_mutate_duration"))
	n("live.wal_append_ms", serveMean("wal_append_duration"))
	n("live.flush_ms", serveMean("live_flush_duration"))
	n("live.query_ms", serveMean("live_query_duration"))
	mut := latencies(ts.mutates)
	r.set("live.mutate_ack_p50_ms", median(mut), len(mut))
	r.set("live.mutate_ack_p99_ms", quantile(mut, 0.99), len(mut))
	var qServed, fServed []float64
	for _, op := range ts.reads {
		qServed = append(qServed, ms(op.done-op.sent))
	}
	for _, op := range ts.flushes {
		fServed = append(fServed, ms(op.done-op.sent))
	}
	n("live.http_overhead_ms", mean(qServed)-serveMean("live_query_duration"))
	n("live.flush_overhead_ms", mean(fServed)-serveMean("live_flush_duration"))
	partial := a.stat("PartialRecomputes") - b.stat("PartialRecomputes")
	full := a.stat("FullRecomputes") - b.stat("FullRecomputes")
	n("live.partial_recomputes", partial)
	n("live.full_recomputes", full)
	if partial+full > 0 {
		n("live.full_recompute_ratio", full/(partial+full))
	}
	n("live.rebinds", a.stat("Rebinds")-b.stat("Rebinds"))
	n("live.maintenance_supersteps", counter("maintenance_supersteps"))
	deltas := a.stat("DeltasApplied") - b.stat("DeltasApplied")
	n("live.deltas_applied", deltas)
	n("live.snapshots", a.stat("SnapshotsWritten")-b.stat("SnapshotsWritten"))
	n("live.snapshot_ms", serveMean("snapshot_duration"))
	if deltas > 0 {
		n("live.wal_bytes_per_mutation", counter("wal_bytes")/deltas)
	}

	kreq := float64(len(ts.reads)+len(ts.mutates)+len(ts.flushes)+ts.checks) / 1000
	n("serve.cpu_ms_per_kreq", ms(a.cpu[0]-b.cpu[0])/kreq)
	if len(a.cpu) > 1 {
		n("worker.cpu_ms_per_kreq", ms(a.cpu[1]-b.cpu[1])/kreq)
	}
	n("serve.gc_pause_ms", ms(a.mem[0].pauseSince(b.mem[0])))
	n("serve.alloc_mb_per_kreq", float64(a.mem[0].TotalAlloc-b.mem[0].TotalAlloc)/1e6/kreq)
	var cycles, pause float64
	for i := range a.mem {
		cycles += float64(a.mem[i].NumGC - b.mem[i].NumGC)
		pause += ms(a.mem[i].pauseSince(b.mem[i]))
	}
	n("gc.cycles", cycles)
	n("gc.pause_ms", pause)
}
