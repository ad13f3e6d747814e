package distrib

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
)

// Conn is one control connection, coordinator or worker end, and the one
// place the control codec lives: JSON messages, one per line. Its lock
// serializes request/response exchanges, so concurrent callers (a live
// view's parallel queries) multiplex safely over the single connection.
type Conn struct {
	mu  sync.Mutex
	nc  net.Conn
	dec *json.Decoder
	enc *json.Encoder
}

func newConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, dec: json.NewDecoder(nc), enc: json.NewEncoder(nc)}
}

// Call performs one locked request/response exchange, returning the
// reply of kind want; an error reply is surfaced as an error.
func (c *Conn) Call(req Msg, want string) (Msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return Msg{}, err
	}
	return c.read(want)
}

// Send fires a message without awaiting a reply (broadcasts, and the
// worker's replies); a matching Recv must follow under the same external
// ordering.
func (c *Conn) Send(msg Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enc.Encode(msg)
}

// Recv awaits one reply of kind want.
func (c *Conn) Recv(want string) (Msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.read(want)
}

// read decodes one reply; the caller holds c.mu.
func (c *Conn) read(want string) (Msg, error) {
	msg, err := c.next()
	if err != nil {
		return Msg{}, err
	}
	if msg.Kind == kindError {
		return Msg{}, fmt.Errorf("distrib: worker: %s", msg.Err)
	}
	if msg.Kind != want {
		return Msg{}, fmt.Errorf("distrib: worker sent %q, want %q", msg.Kind, want)
	}
	return msg, nil
}

// next decodes the next message, whatever its kind (the worker end reads
// requests with it).
func (c *Conn) next() (Msg, error) {
	var msg Msg
	err := c.dec.Decode(&msg)
	return msg, err
}

// Close drops the connection.
func (c *Conn) Close() error { return c.nc.Close() }
