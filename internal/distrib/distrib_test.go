package distrib

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/runtime"
)

// startWorkers launches n in-process worker control listeners and returns
// their addresses. In production the workers are separate processes
// (spinflow worker); in-process workers exercise the identical code paths
// — real TCP for both control and data planes — inside one test binary.
// Each worker gets its own telemetry registry (regs[i]), as each would in
// its own process.
func startWorkers(t *testing.T, n int, regs ...*obs.Registry) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		var reg *obs.Registry
		if i < len(regs) {
			reg = regs[i]
		}
		go ServeWorker(ln, nil, reg)
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// runSingle computes the oracle: the same job on the plain single-process
// incremental driver.
func runSingle(t *testing.T, js JobSpec) []record.Record {
	t.Helper()
	js = js.normalized()
	spec, s0, w0, err := buildSpec(js)
	if err != nil {
		t.Fatal(err)
	}
	cfg := iterative.Config{Parallelism: js.Parallelism, BatchSize: js.BatchSize}
	if js.Backend != "" {
		cfg.SolutionBackend = runtime.SolutionBackendKind(js.Backend)
	}
	res, err := iterative.RunIncremental(spec, s0, w0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol := res.Solution
	sort.Slice(sol, func(x, y int) bool { return record.Less(sol[x], sol[y]) })
	return sol
}

func encodeAll(recs []record.Record) []byte {
	var out []byte
	for _, r := range recs {
		out = r.Encode(out)
	}
	return out
}

func TestDistributedMatchesSingleProcess(t *testing.T) {
	jobs := []JobSpec{
		{Algorithm: "cc", GraphKind: "uniform", GraphN: 80, GraphM: 160, Seed: 0xD157, Exec: Exec{Parallelism: 4}},
		{Algorithm: "cc-cogroup", GraphKind: "uniform", GraphN: 60, GraphM: 100, Seed: 0xD158, Exec: Exec{Parallelism: 2}},
		{Algorithm: "sssp", GraphKind: "uniform", GraphN: 70, GraphM: 180, Seed: 0xD159, Source: 3, Exec: Exec{Parallelism: 4}},
		{Algorithm: "cc", GraphKind: "pa", GraphN: 90, GraphM: 270, Seed: 0xD15A, Exec: Exec{Parallelism: 4, Backend: "map"}},
	}
	for _, js := range jobs {
		js := js
		t.Run(js.Algorithm+"-"+js.GraphKind, func(t *testing.T) {
			want := runSingle(t, js)
			got, err := Run(js, startWorkers(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
				t.Fatalf("distributed fixpoint diverged: %d records vs %d single-process",
					len(got.Solution), len(want))
			}
			if got.Supersteps < 2 {
				t.Fatalf("suspiciously trivial run: %d supersteps", got.Supersteps)
			}
		})
	}
}

func TestDistributedThreeProcesses(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 96, GraphM: 200, Seed: 0xD15B, Exec: Exec{Parallelism: 6}}
	want := runSingle(t, js)
	got, err := Run(js, startWorkers(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
		t.Fatalf("3-process fixpoint diverged: %d records vs %d", len(got.Solution), len(want))
	}
}

// TestDistributedSingleHost runs the coordinator with no workers: the
// degenerate 1-host placement must behave exactly like the plain driver
// (all partitions hosted, the transport never used).
func TestDistributedSingleHost(t *testing.T) {
	js := JobSpec{Algorithm: "sssp", GraphKind: "uniform", GraphN: 50, GraphM: 120, Seed: 0xD15C, Source: 1, Exec: Exec{Parallelism: 2}}
	want := runSingle(t, js)
	got, err := Run(js, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
		t.Fatal("single-host distributed run diverged from the plain driver")
	}
	if got.Work.RemoteBatches != 0 {
		t.Fatalf("single-host run shipped %d remote batches", got.Work.RemoteBatches)
	}
}

// TestDistributedRemoteTrafficCounted checks the new transport metrics
// actually observe the shuffle: a 2-process CC run must ship batches.
func TestDistributedRemoteTrafficCounted(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 80, GraphM: 200, Seed: 0xD15D, Exec: Exec{Parallelism: 4}}
	got, err := Run(js, startWorkers(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Work.RemoteBatches == 0 || got.Work.RemoteBytes == 0 {
		t.Fatalf("2-process run reported no remote traffic: %+v", got.Work)
	}
	if got.Work.TransportErrors != 0 {
		t.Fatalf("clean run counted %d transport errors", got.Work.TransportErrors)
	}
}

// TestWorkerSurvivesSequentialJobs reuses one worker (one control
// connection dialed per Run) for several jobs, as the CI smoke does.
func TestWorkerSurvivesSequentialJobs(t *testing.T) {
	addrs := startWorkers(t, 1)
	for i := 0; i < 3; i++ {
		js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80,
			Seed: 0xD15E + uint64(i), Exec: Exec{Parallelism: 2}}
		want := runSingle(t, js)
		got, err := Run(js, addrs)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
			t.Fatalf("job %d diverged", i)
		}
	}
}

// TestDistributedTracePropagation is the telemetry acceptance check: a
// 2-process traced run must produce superstep spans on BOTH hosts, all
// under the single trace ID the coordinator minted, reassembled into the
// coordinator's ring — and the differential result must be unaffected.
func TestDistributedTracePropagation(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 80, GraphM: 160, Seed: 0xD15F, Exec: Exec{Parallelism: 4}}
	want := runSingle(t, js)

	coord := obs.NewRegistry()
	workerReg := obs.NewRegistry()
	got, err := RunObs(js, startWorkers(t, 1, workerReg), coord)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
		t.Fatal("traced run diverged from single-process")
	}

	if len(got.Spans) == 0 {
		t.Fatal("traced run returned no spans")
	}
	var id obs.TraceID
	hostSteps := map[int32]int{}
	for _, sp := range got.Spans {
		if sp.Trace == 0 {
			t.Fatalf("span with zero trace ID: %+v", sp)
		}
		if id == 0 {
			id = sp.Trace
		}
		if sp.Trace != id {
			t.Fatalf("spans carry mixed trace IDs: %016x and %016x", id, sp.Trace)
		}
		if sp.Phase == obs.PhaseSuperstep {
			hostSteps[sp.Host]++
		}
	}
	if hostSteps[0] == 0 || hostSteps[1] == 0 {
		t.Fatalf("superstep spans per host = %v, want both hosts represented", hostSteps)
	}
	// Both hosts ran the same barrier schedule.
	if hostSteps[0] != hostSteps[1] {
		t.Errorf("host superstep counts differ: %v", hostSteps)
	}
	if hostSteps[0] != got.Supersteps {
		t.Errorf("host 0 recorded %d superstep spans, run took %d", hostSteps[0], got.Supersteps)
	}
	// The coordinator's ring holds the merged trace too (what `spinflow
	// trace distributed` renders).
	if n := len(coord.Trace().SpansFor(id)); n != len(got.Spans) {
		t.Errorf("ring holds %d spans for the trace, Result.Spans has %d", n, len(got.Spans))
	}
	// The barrier RTT histogram saw every superstep.
	if c := coord.Histogram("distrib_step_rtt").Count(); c != int64(got.Supersteps) {
		t.Errorf("distrib_step_rtt count = %d, want %d", c, got.Supersteps)
	}
	// Cross-process shuffle was timed on the coordinator's transport.
	if coord.Histogram("transport_send_duration").Count() == 0 {
		t.Error("transport_send_duration recorded nothing")
	}
	// The coordinator recorded one barrier span per superstep, tagged
	// with the step, and the timeline reports those waits rather than
	// deriving Total−Compute.
	barrier := map[int32]time.Duration{}
	for _, sp := range got.Spans {
		if sp.Phase != obs.PhaseBarrier {
			continue
		}
		if sp.Host != 0 {
			t.Errorf("barrier span recorded on host %d, want the coordinator", sp.Host)
		}
		if _, dup := barrier[sp.Step]; dup {
			t.Errorf("two barrier spans for superstep %d", sp.Step)
		}
		barrier[sp.Step] = time.Duration(sp.Dur)
	}
	if len(barrier) != got.Supersteps {
		t.Fatalf("%d barrier spans, run took %d supersteps", len(barrier), got.Supersteps)
	}
	for _, row := range obs.BuildTimeline(got.Spans) {
		d, ok := barrier[row.Step]
		if !ok {
			t.Fatalf("timeline row for superstep %d has no barrier span", row.Step)
		}
		if row.Barrier != d {
			t.Errorf("superstep %d: timeline barrier %v, recorded span %v", row.Step, row.Barrier, d)
		}
	}
}

// TestDistributedReoptimizeMatchesSingleProcess is the plan-epoch
// acceptance check: a 2-process run with mid-run re-optimization enabled
// must apply at least one coordinated plan epoch (the workset collapses
// far below the planned estimate near convergence) and still produce the
// byte-identical fixpoint, in the same number of supersteps, as the
// single-process driver running the identical spec.
func TestDistributedReoptimizeMatchesSingleProcess(t *testing.T) {
	jobs := []JobSpec{
		{Algorithm: "cc", GraphKind: "uniform", GraphN: 200, GraphM: 400, Seed: 0xE90C, Reoptimize: true, Exec: Exec{Parallelism: 4}},
		{Algorithm: "sssp", GraphKind: "uniform", GraphN: 150, GraphM: 450, Seed: 0xE90D, Source: 2, Reoptimize: true, Exec: Exec{Parallelism: 4}},
	}
	for _, js := range jobs {
		js := js
		t.Run(js.Algorithm, func(t *testing.T) {
			single, err := RunSingle(js)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(js, startWorkers(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeAll(got.Solution), encodeAll(single.Solution)) {
				t.Fatalf("re-optimized distributed fixpoint diverged: %d records vs %d single-process",
					len(got.Solution), len(single.Solution))
			}
			if got.Supersteps != single.Supersteps {
				t.Fatalf("superstep counts diverged: distributed %d, single %d",
					got.Supersteps, single.Supersteps)
			}
			if got.PlanEpochs < 1 {
				t.Fatalf("run applied %d plan epochs, want at least one mid-run re-optimization", got.PlanEpochs)
			}
		})
	}
}

// startFakeWorker runs an almost-honest worker in-process: the real
// session loop (real plan, real data plane, real epoch swaps) behind a
// connection that passes every control reply through mutate first, so
// tests can inject exactly one protocol-level lie and watch the
// coordinator catch it.
func startFakeWorker(t *testing.T, mutate func(reply *Msg)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		serveControl(lyingConn{conn, mutate}, ServeWorkerOpts{})
	}()
	return ln.Addr().String()
}

// lyingConn rewrites each outgoing control message (the codec writes one
// message per Write call).
type lyingConn struct {
	net.Conn
	mutate func(*Msg)
}

func (c lyingConn) Write(p []byte) (int, error) {
	var msg Msg
	if err := json.Unmarshal(p, &msg); err != nil {
		return 0, err
	}
	c.mutate(&msg)
	b, err := json.Marshal(msg)
	if err != nil {
		return 0, err
	}
	if _, err := c.Conn.Write(append(b, '\n')); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestStaleEpochRejectedAtBarrier pins the barrier-time staleness check: a
// worker whose step acknowledgment carries the wrong plan epoch — as a
// worker that missed a coordinated swap would — must be rejected at the
// superstep barrier, before another round executes.
func TestStaleEpochRejectedAtBarrier(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80, Seed: 0xE90E, Exec: Exec{Parallelism: 2}}
	addr := startFakeWorker(t, func(reply *Msg) {
		if reply.Kind == kindStepDone {
			reply.Epoch = 7 // a plan swap the coordinator never announced
		}
	})
	_, err := Run(js, []string{addr})
	if err == nil {
		t.Fatal("coordinator accepted a step acknowledgment from a stale plan epoch")
	}
	if !strings.Contains(err.Error(), "rejected at the barrier") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

// TestEpochDigestMismatchAborts pins the swap-time agreement check: if a
// worker's re-planned dataflow digest disagrees with the coordinator's,
// the epoch bump fails — and it fails before the coordinator swaps its own
// session, so no superstep ever runs on a mixed-plan mesh.
func TestEpochDigestMismatchAborts(t *testing.T) {
	// Same spec as the parity test: known to trigger a mid-run epoch.
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 200, GraphM: 400, Seed: 0xE90C, Reoptimize: true, Exec: Exec{Parallelism: 4}}
	addr := startFakeWorker(t, func(reply *Msg) {
		if reply.Kind == kindEpochDone {
			reply.Digest = "deadbeefdeadbeef"
		}
	})
	_, err := Run(js, []string{addr})
	if err == nil {
		t.Fatal("coordinator accepted an epoch acknowledgment with a foreign plan digest")
	}
	if !strings.Contains(err.Error(), "different dataflow") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

// TestUntracedDistributedUnaffected pins the zero-cost default: a plain
// Run (nil registry) must keep TraceID zero end to end.
func TestUntracedDistributedUnaffected(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80, Seed: 0xD160, Exec: Exec{Parallelism: 2}}
	got, err := Run(js, startWorkers(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Spans != nil {
		t.Fatalf("untraced run returned %d spans", len(got.Spans))
	}
}

// refusingViews is a ViewHost whose every view fails to open.
type refusingViews struct{}

func (refusingViews) OpenView(Msg) (Hosted, error) { return nil, errors.New("no such view") }

// TestFailedOpenLeavesConnectionUsable: a session that fails to open is
// answered with an error, and the same control connection then carries a
// whole batch job to the byte-identical fixpoint.
func TestFailedOpenLeavesConnectionUsable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go ServeWorkerWith(ln, ServeWorkerOpts{Views: refusingViews{}})
	nc, err := DialWorker(ln.Addr().String(), MeshTimeout)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(nc)
	if _, err := c.Call(Msg{Kind: kindOpen, HostID: 1, View: &ViewSpec{Algorithm: "cc"}}, kindReady); err == nil ||
		!strings.Contains(err.Error(), "no such view") {
		t.Fatalf("failed view open answered %v, want the host's error", err)
	}

	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 60, GraphM: 120, Seed: 0xD161, Exec: Exec{Parallelism: 2, Hosts: 2}}
	want := runSingle(t, js)
	j, err := openJob(js, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(j.Core, 1)
	s.Conns = append(s.Conns, c)
	if err := s.handshake(func(int) Msg { return Msg{Job: &js} }); err != nil {
		s.Kill()
		t.Fatalf("open after a failed open: %v", err)
	}
	got, err := drive(s, js.normalized())
	if err != nil {
		s.Kill()
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
		t.Fatal("job after a failed open diverged from single-process")
	}
}

// TestRequestsOutOfOrderRejected: a request that needs the meshed session
// (step, epoch, collect, a hosted verb) arriving before start, and a second
// start, are answered with an error instead of reaching a fixpoint that is
// not open — and the worker goes on to run a job to the byte-identical
// fixpoint.
func TestRequestsOutOfOrderRejected(t *testing.T) {
	addr := startWorkers(t, 1)[0]
	dial := func() *Conn {
		nc, err := DialWorker(addr, MeshTimeout)
		if err != nil {
			t.Fatal(err)
		}
		return newConn(nc)
	}
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80, Seed: 0xD162,
		Exec: Exec{Parallelism: 2, Hosts: 2}}
	for _, kind := range []string{kindStep, kindEpoch, kindCollect, "view_seed"} {
		c := dial()
		if _, err := c.Call(Msg{Kind: kindOpen, HostID: 1, Job: &js}, kindReady); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(Msg{Kind: kind}, kindMeshed); err == nil || !strings.Contains(err.Error(), "before start") {
			t.Fatalf("%s before start answered %v, want an error", kind, err)
		}
		c.Close()
	}

	j, err := openJob(js, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(j.Core, 1)
	s.Conns = append(s.Conns, dial())
	if err := s.handshake(func(int) Msg { return Msg{Job: &js} }); err != nil {
		s.Kill()
		t.Fatal(err)
	}
	_, err = s.Conns[0].Call(Msg{Kind: kindStart}, kindMeshed)
	s.Kill()
	if err == nil || !strings.Contains(err.Error(), "second start") {
		t.Fatalf("second start answered %v, want an error", err)
	}

	want := runSingle(t, js)
	got, err := Run(js, []string{addr})
	if err != nil {
		t.Fatalf("job after rejected requests: %v", err)
	}
	if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
		t.Fatal("job after rejected requests diverged from single-process")
	}
}

// panickingViews hosts a batch job's share as a view whose every hosted
// verb panics; data receives each opened share's data-plane address.
type panickingViews struct {
	js   JobSpec
	data chan string
}

type panickingView struct{ *job }

func (panickingView) Handle(Msg) (Msg, error) { panic("hosted verb failed") }

func (v panickingViews) OpenView(open Msg) (Hosted, error) {
	j, err := openJob(v.js, open.HostID, nil)
	if err != nil {
		return nil, err
	}
	v.data <- j.dataAddr
	return panickingView{j}, nil
}

// TestWorkerPanicIsolated: a panic in a hosted verb is answered with an
// error, the panicking session's core is closed (its data listener stops
// accepting), and the worker process goes on to run a batch job to the
// byte-identical fixpoint.
func TestWorkerPanicIsolated(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 60, GraphM: 120, Seed: 0xD163,
		Exec: Exec{Parallelism: 2, Hosts: 2}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	views := panickingViews{js: js, data: make(chan string, 1)}
	go ServeWorkerWith(ln, ServeWorkerOpts{Views: views})
	addr := ln.Addr().String()

	j, err := openJob(js, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(j.Core, []string{addr}, func(int) Msg { return Msg{View: &ViewSpec{Algorithm: "cc"}} })
	if err != nil {
		t.Fatal(err)
	}
	dataAddr := <-views.data
	_, err = s.Conns[0].Call(Msg{Kind: "view_query"}, "view_value")
	s.Kill()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking verb answered %v, want an error", err)
	}
	if nc, err := net.Dial("tcp", dataAddr); err == nil {
		nc.Close()
		t.Fatal("the panicked session's data listener still accepts")
	}

	want := runSingle(t, js)
	got, err := Run(js, []string{addr})
	if err != nil {
		t.Fatalf("job after a panicked session: %v", err)
	}
	if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
		t.Fatal("job after a panicked session diverged from single-process")
	}
}
