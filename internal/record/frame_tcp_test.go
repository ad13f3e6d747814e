package record

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// framePipe returns a connected TCP pair on loopback — the transport's
// actual transport, so reads see real socket short-read behavior rather
// than bytes.Reader's always-full reads.
func framePipe(t *testing.T) (client net.Conn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	if cerr != nil {
		t.Fatal(cerr)
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	// A decoding bug must fail the test, not hang it.
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	return client, server
}

// Frames arriving in dribbles — every socket write smaller than a header,
// so every length, count, and record straddles read boundaries — must
// decode identically to a contiguous stream.
func TestFrameReaderTCPShortReads(t *testing.T) {
	batches := []Batch{
		{{A: 1, B: 2, X: 3.5, Tag: 4}, {A: -9}},
		{}, // empty frames are valid (section markers)
		{{A: 7, B: 7, X: -0.25, Tag: 255}},
		{{A: 100}, {A: 101}, {A: 102}},
	}
	buf := frameStream(batches)
	client, server := framePipe(t)

	go func() {
		// 3-byte writes with pauses: no frame header (8 bytes) or record
		// longer than 3 bytes ever arrives in one TCP segment.
		for i := 0; i < len(buf); i += 3 {
			end := i + 3
			if end > len(buf) {
				end = len(buf)
			}
			if _, err := server.Write(buf[i:end]); err != nil {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		server.Close()
	}()

	fr := NewFrameReader(client)
	for i, want := range batches {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d records, want %d", i, len(got), len(want))
		}
		for j := range want {
			if !got[j].Equal(want[j]) {
				t.Fatalf("frame %d record %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
	if fr.ValidOffset() != int64(len(buf)) {
		t.Fatalf("ValidOffset %d, want %d", fr.ValidOffset(), len(buf))
	}
}

// A peer dying mid-frame must surface as ErrCorruptFrame after the last
// intact frame — never a hang, never a clean EOF that silently drops the
// partial frame, and never a misaligned decode of the next stream.
func TestFrameReaderTCPMidFrameDrop(t *testing.T) {
	full := frameStream([]Batch{{{A: 1}, {A: 2}}})
	partial := frameStream([]Batch{{{A: 3}, {A: 4}, {A: 5}}})
	cuts := []struct {
		name string
		keep int // bytes of the second frame that make it onto the wire
	}{
		{"mid-header", 5},
		{"after-header", FrameHeaderSize + 2},
		{"mid-record", FrameHeaderSize + 1 + 2 + 1},
	}
	for _, cut := range cuts {
		t.Run(cut.name, func(t *testing.T) {
			client, server := framePipe(t)
			go func() {
				server.Write(full)
				server.Write(partial[:cut.keep])
				server.Close() // connection drops mid-frame
			}()

			fr := NewFrameReader(client)
			got, err := fr.Next()
			if err != nil || len(got) != 2 {
				t.Fatalf("intact frame: %v records, err %v", got, err)
			}
			_, err = fr.Next()
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("torn frame: err %v, want ErrCorruptFrame", err)
			}
			if fr.ValidOffset() != int64(len(full)) {
				t.Fatalf("ValidOffset %d, want %d (the intact prefix)", fr.ValidOffset(), len(full))
			}
		})
	}
}
