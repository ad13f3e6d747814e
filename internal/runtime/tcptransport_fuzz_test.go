package runtime

import (
	"encoding/binary"
	"net"
	goruntime "runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/record"
)

// fuzzTrace is the trace ID the fuzzed transport expects on headers.
const fuzzTrace = 0x5eed

// tcpMsg builds one data-plane message: the tcpHeaderSize-byte header
// followed by body.
func tcpMsg(kind byte, edge, part uint32, trace uint64, body []byte) []byte {
	var hdr [tcpHeaderSize]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], edge)
	binary.LittleEndian.PutUint32(hdr[5:9], part)
	binary.LittleEndian.PutUint64(hdr[tcpTraceOff:], trace)
	return append(hdr[:], body...)
}

// FuzzTCPReadLoop feeds arbitrary bytes — what a peer sends after its
// preamble — into a TCPTransport read loop over an in-memory pipe. The
// loop must end (the peer closes after sending), surface the end through
// Err, never panic, and allocate in proportion to the input: no length
// field may size an allocation the bytes do not back.
func FuzzTCPReadLoop(f *testing.F) {
	frame := record.AppendFrame(nil, record.Batch{{A: 2, B: 1}, {A: 4, X: 0.5, Tag: 1}})
	f.Add([]byte{})
	f.Add(tcpMsg(tcpMsgData, 0, 0, fuzzTrace, frame))
	f.Add(append(tcpMsg(tcpMsgData, 1, 0, 0, frame), tcpMsg(tcpMsgEOS, 1, 0, fuzzTrace, nil)...))
	f.Add(tcpMsg(tcpMsgData, 0, 1, fuzzTrace, frame)) // partition not hosted here
	f.Add(tcpMsg(tcpMsgData, 0, 0, 0xbad, frame))     // another job's trace
	f.Add(tcpMsg(tcpMsgData, 7, 0, fuzzTrace, frame)) // edge out of range
	f.Add(tcpMsg(9, 0, 0, fuzzTrace, nil))            // unknown kind
	f.Add(tcpMsg(tcpMsgData, 0, 0, fuzzTrace, frame[:len(frame)-1]))
	f.Add(tcpMsg(tcpMsgData, 0, 0, fuzzTrace, []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		tr := NewTCPTransport(0, ContiguousPlacement(2, 2), 2, &metrics.Counters{})
		tr.SetObs(fuzzTrace, nil)
		ours, peer := net.Pipe()
		if !tr.register(1, ours) {
			t.Fatal("register refused the peer")
		}
		go func() {
			peer.Write(data)
			peer.Close()
		}()
		// The read loop is the only goroutine on wg: it returns at the
		// first malformed message or at the peer's close.
		tr.wg.Wait()
		err := tr.Err()
		tr.Close()
		if err == nil {
			t.Fatal("the read loop ended without an error")
		}
		goruntime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
	})
}
