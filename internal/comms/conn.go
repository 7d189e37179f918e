package comms

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// Conn is the client side of a multiplexed comms connection. Any number of
// goroutines may issue requests concurrently; each request is assigned a
// fresh id and its response (the first frame echoing that id) is routed back
// to the caller. A caller whose context expires sends a TypeCancel control
// frame so the server aborts the in-flight work, then returns the context
// error without waiting for the server.
type Conn struct {
	nc net.Conn

	wmu    sync.Mutex
	wbuf   []byte
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan Frame
	err     error
	closed  chan struct{}
}

// Dial connects to addr and starts the read loop.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// NewConn wraps an established connection and starts the read loop.
func NewConn(nc net.Conn) *Conn {
	c := &Conn{
		nc:      nc,
		pending: make(map[uint64]chan Frame),
		closed:  make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// RemoteAddr reports the peer address, for logs and metrics labels.
func (c *Conn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

func (c *Conn) readLoop() {
	var buf []byte
	for {
		f, nb, err := ReadFrame(c.nc, buf)
		buf = nb
		if err != nil {
			c.fail(fmt.Errorf("comms: connection to %s: %w", c.RemoteAddr(), err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.RequestID]
		if ok {
			delete(c.pending, f.RequestID)
		}
		c.mu.Unlock()
		if ok {
			// The payload aliases the shared read buffer; copy before
			// handing it to a goroutine that outlives this iteration.
			f.Payload = append([]byte(nil), f.Payload...)
			ch <- f
		}
	}
}

func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.closed)
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
	c.nc.Close()
}

// Close tears the connection down; in-flight requests fail.
func (c *Conn) Close() error {
	c.fail(fmt.Errorf("comms: connection closed"))
	return nil
}

// Err returns the terminal connection error, or nil while healthy.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Conn) send(f Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := WriteFrame(c.nc, f, c.wbuf)
	c.wbuf = buf
	return err
}

// Do sends one request frame under a fresh id and waits for the response
// frame carrying the same id. The response type is application-defined
// (e.g. an error response type). On ctx expiry a best-effort TypeCancel is
// sent and ctx.Err() returned.
func (c *Conn) Do(ctx context.Context, typ uint8, payload []byte) (Frame, error) {
	id := c.nextID.Add(1)
	ch := make(chan Frame, 1)

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Frame{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.send(Frame{Type: typ, RequestID: id, Payload: payload}); err != nil {
		c.fail(err)
		return Frame{}, err
	}

	select {
	case f, ok := <-ch:
		if !ok {
			return Frame{}, c.Err()
		}
		return f, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		_ = c.send(Frame{Type: TypeCancel, RequestID: id})
		return Frame{}, ctx.Err()
	case <-c.closed:
		return Frame{}, c.Err()
	}
}
