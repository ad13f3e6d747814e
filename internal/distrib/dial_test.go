package distrib

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"
)

// TestDialWorkerRetriesLateWorker pins the session-open retry policy: a
// worker whose listener comes up *after* the coordinator starts dialing —
// the normal `spinflow serve -workers N` race, where serve spawns the
// worker processes and immediately opens sessions — must be reached by
// the bounded-backoff dial, and the job must complete normally.
func TestDialWorkerRetriesLateWorker(t *testing.T) {
	// Reserve an address, then free it so the dial's first attempts are
	// refused; the real worker binds it a few backoff rounds later.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	go func() {
		time.Sleep(250 * time.Millisecond)
		late, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the test will fail loudly below
		}
		go ServeWorker(late, nil, nil)
	}()

	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 40, GraphM: 80, Seed: 0xD1A1, Exec: Exec{Parallelism: 2}}
	want := runSingle(t, js)
	got, err := Run(js, []string{addr})
	if err != nil {
		t.Fatalf("run against late-starting worker: %v", err)
	}
	if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
		t.Fatal("late-worker run diverged from single-process")
	}
}

// TestDialWorkerGivesUp pins the bound: a worker that never appears fails
// the dial after the fixed attempt budget, not after the caller's whole
// timeout per attempt has elapsed serially forever.
func TestDialWorkerGivesUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = DialWorker(addr, 2*time.Second)
	if err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("error does not report the attempt budget: %v", err)
	}
	// 5 sleeps of 50,100,200,400,800ms ≈ 1.55s plus refused dials.
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("dial retried for %v, backoff is unbounded", el)
	}
}

// TestWireCompressionRoundTrip pins the compressed data plane: a
// 2-process run with WireCompression on must produce the byte-identical
// fixpoint to the single-process driver, and the compressed-bytes counter
// must see real traffic (CC on a few hundred edges ships frames well over
// the compression floor).
func TestWireCompressionRoundTrip(t *testing.T) {
	js := JobSpec{Algorithm: "cc", GraphKind: "uniform", GraphN: 200, GraphM: 500, Seed: 0xC0DE,
		Exec: Exec{Parallelism: 4, WireCompression: true}}
	want := runSingle(t, js)
	got, err := Run(js, startWorkers(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAll(got.Solution), encodeAll(want)) {
		t.Fatal("compressed-wire fixpoint diverged from single-process")
	}
	if got.Work.RemoteBytesCompressed == 0 {
		t.Fatalf("compressed run counted no compressed wire bytes: %+v", got.Work)
	}
	if got.Work.RemoteBytes == 0 {
		t.Fatal("compressed run counted no remote payload bytes")
	}

	// And the uncompressed control: same job, flag off, same fixpoint,
	// zero compressed bytes.
	js.WireCompression = false
	plain, err := Run(js, startWorkers(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAll(plain.Solution), encodeAll(want)) {
		t.Fatal("uncompressed control run diverged")
	}
	if plain.Work.RemoteBytesCompressed != 0 {
		t.Fatalf("uncompressed run counted %d compressed bytes", plain.Work.RemoteBytesCompressed)
	}
}
