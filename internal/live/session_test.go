package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/record"
)

// startWorker runs an in-process `spinflow worker` equivalent hosting view
// sessions and returns its control address.
func startWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go distrib.ServeWorkerWith(ln, distrib.ServeWorkerOpts{Views: NewWorkerHost(nil)})
	return ln.Addr().String()
}

// ctlProxy relays coordinator→worker control connections to a worker,
// counting the coordinator's messages of one kind, and can cut every
// relayed connection the way a dying worker would.
type ctlProxy struct {
	addr  string
	kind  []byte
	sent  atomic.Int64
	mu    sync.Mutex
	conns []net.Conn
}

func startProxy(t *testing.T, worker, kind string) *ctlProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &ctlProxy{addr: ln.Addr().String(), kind: []byte(`"kind":"` + kind + `"`)}
	t.Cleanup(func() {
		ln.Close()
		p.cut()
	})
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", worker)
			if err != nil {
				in.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, in, out)
			p.mu.Unlock()
			go io.Copy(in, out)
			go func() {
				// Control messages are newline-terminated JSON; a message
				// is counted before it is relayed, so the count is final
				// by the time its reply reaches the coordinator.
				r := bufio.NewReader(in)
				for {
					line, err := r.ReadBytes('\n')
					if bytes.Contains(line, p.kind) {
						p.sent.Add(1)
					}
					if _, werr := out.Write(line); werr != nil || err != nil {
						return
					}
				}
			}()
		}
	}()
	return p
}

// cut drops every relayed connection.
func (p *ctlProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func shardedConfig(workers ...string) ViewConfig {
	return ViewConfig{Config: iterative.Config{Parallelism: 4}, Workers: workers}
}

// TestStatsOneWorkerRoundTrip: Stats derives the solution records, bytes
// and per-host split from one view_stats exchange per worker.
func TestStatsOneWorkerRoundTrip(t *testing.T) {
	p := startProxy(t, startWorker(t), viewStats)
	v, err := NewView("stats", CC(), chain(20), shardedConfig(p.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	before := p.sent.Load()
	st := v.Stats()
	if got := p.sent.Load() - before; got != 1 {
		t.Fatalf("Stats sent %d view_stats messages, want 1", got)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("Shards = %+v, want two hosts", st.Shards)
	}
	if sum := st.Shards[0].Records + st.Shards[1].Records; st.SolutionRecords != 21 || sum != 21 {
		t.Fatalf("SolutionRecords %d, shards sum %d, want 21", st.SolutionRecords, sum)
	}
	if st.SolutionBytes != st.Shards[0].Bytes+st.Shards[1].Bytes {
		t.Fatalf("SolutionBytes %d is not the shards' sum %+v", st.SolutionBytes, st.Shards)
	}
}

// TestShardedReadsSurfaceWorkerFailure cuts the worker's control
// connection mid-session: a query for a key the worker owns must fail —
// HTTP 502 — rather than answer "not found", and Snapshot must fail
// rather than return the coordinator's partial set.
func TestShardedReadsSurfaceWorkerFailure(t *testing.T) {
	p := startProxy(t, startWorker(t), viewQuery)
	s := NewScheduler(SchedulerConfig{DefaultView: shardedConfig(p.addr)})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	v, err := s.Create("g", CC(), chain(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Kill()
	key := int64(-1)
	for k := int64(0); k <= 20; k++ {
		if v.sess.core.Place[v.sess.core.Sol.PartitionFor(k)] == 1 {
			key = k
			break
		}
	}
	if key < 0 {
		t.Fatal("the worker hosts no vertex of the chain")
	}
	query := srv.URL + "/views/g/query?key=" + strconv.FormatInt(key, 10)
	resp := mustGet(t, query)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query before the cut: %s", resp.Status)
	}

	p.cut()
	resp = mustGet(t, query)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("query to a cut worker: %s, want 502", resp.Status)
	}
	if _, _, err := v.Query(key); err == nil {
		t.Fatal("Query to a cut worker returned no error")
	}
	if snap, err := v.Snapshot(); err == nil {
		t.Fatalf("Snapshot with a cut worker returned %d records and no error", len(snap))
	}
}

// TestAutoEngineRejectsWorkers: the AutoEngine full recompute runs
// in-process only, so creating an auto view on a scheduler serving over
// workers is a bad request.
func TestAutoEngineRejectsWorkers(t *testing.T) {
	s := NewScheduler(SchedulerConfig{DefaultView: shardedConfig(startWorker(t))})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp := postJSON(t, srv.URL+"/views", CreateRequest{
		Name: "g", Algorithm: "auto", Edges: []EdgeJSON{{Src: 0, Dst: 1}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create auto view on workers: %s, want 400", resp.Status)
	}
}

// TestWorkerServesJobThenView: one worker serves a batch job and then a
// sharded view's session through the same session protocol, each
// byte-identical to its single-process run; a view that fails to open
// leaves the worker serving.
func TestWorkerServesJobThenView(t *testing.T) {
	addr := startWorker(t)

	js := distrib.JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 80, GraphM: 160, Seed: 0x5E55, Exec: distrib.Exec{Parallelism: 4}}
	single, err := distrib.RunSingle(js)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := distrib.Run(js, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(distrib.EncodeSolution(dist.Solution), distrib.EncodeSolution(single.Solution)) {
		t.Fatal("batch job on the worker diverged from single-process")
	}

	core, err := newShardCore(CC(), iterative.Config{Parallelism: 4, Hosts: 2}, NewGraphState(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := distrib.Open(core.Core, []string{addr}, func(int) distrib.Msg {
		return distrib.Msg{View: &distrib.ViewSpec{Algorithm: "pagerank"}}
	}); err == nil || !strings.Contains(err.Error(), "unknown sharded algorithm") {
		t.Fatalf("view open with an unknown maintainer: %v", err)
	}

	muts := []Mutation{InsertEdge(2, 10), DeleteEdge(5, 6), InsertEdge(20, 21), DeleteVertex(15)}
	snap := func(cfg ViewConfig) []byte {
		v, err := NewView("g", CC(), chain(20), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if err := v.Mutate(muts...); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		sol, err := v.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return distrib.EncodeSolution(sol)
	}
	if !bytes.Equal(snap(shardedConfig(addr)), snap(shardedConfig())) {
		t.Fatal("sharded view on the worker diverged from single-process")
	}
}

// TestViewVerbBeforeStartRejected: a view verb arriving before start is
// answered with an error instead of reaching the unmeshed fixpoint, and
// the worker goes on to serve a sharded view byte-identical to
// in-process.
func TestViewVerbBeforeStartRejected(t *testing.T) {
	addr := startWorker(t)
	nc, err := distrib.DialWorker(addr, distrib.MeshTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	enc, dec := json.NewEncoder(nc), json.NewDecoder(nc)
	exchange := func(req distrib.Msg) distrib.Msg {
		t.Helper()
		var reply distrib.Msg
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}
	open := distrib.Msg{Kind: "open", HostID: 1, Frames: dumpGraph(NewGraphState()),
		View: &distrib.ViewSpec{Algorithm: "cc", Exec: distrib.Exec{Parallelism: 4, Hosts: 2}}}
	if reply := exchange(open); reply.Kind != "ready" {
		t.Fatalf("view open answered %q (%s), want ready", reply.Kind, reply.Err)
	}
	seed := distrib.Msg{Kind: viewSeed, Frames: packRecords([]record.Record{{A: 1, B: 0}})}
	if reply := exchange(seed); reply.Kind != "error" || !strings.Contains(reply.Err, "before start") {
		t.Fatalf("view_seed before start answered %q (%s), want an error", reply.Kind, reply.Err)
	}

	snap := func(cfg ViewConfig) []byte {
		v, err := NewView("g", CC(), chain(20), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		sol, err := v.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return distrib.EncodeSolution(sol)
	}
	if !bytes.Equal(snap(shardedConfig(addr)), snap(shardedConfig())) {
		t.Fatal("sharded view after a rejected verb diverged from in-process")
	}
}
