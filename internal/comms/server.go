package comms

import (
	"context"
	"net"
	"sync"
)

// Handler serves one request frame and returns the response type and
// payload. ctx is canceled when the peer sends TypeCancel for this request,
// when the connection drops, or when the server shuts down. Handlers run on
// their own goroutines, so one slow request never blocks the connection.
type Handler func(ctx context.Context, sc *ServerConn, f Frame) (respType uint8, payload []byte)

// Server accepts comms connections and dispatches frames.
type Server struct {
	handler Handler

	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	conns map[*ServerConn]struct{}
	ln    net.Listener
}

// NewServer builds a server that hands every non-control frame to handler.
// Further arguments are ignored: they once configured one-way frame types,
// and accepting them keeps call sites written for that signature compiling.
func NewServer(handler Handler, _ ...any) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		handler: handler,
		ctx:     ctx,
		cancel:  cancel,
		conns:   make(map[*ServerConn]struct{}),
	}
}

// Serve accepts connections on l until Close. It returns the accept error
// (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.ln = l
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			select {
			case <-s.ctx.Done():
				return net.ErrClosed
			default:
				return err
			}
		}
		sc := &ServerConn{srv: s, nc: nc, inflight: make(map[uint64]context.CancelFunc)}
		s.mu.Lock()
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		go sc.readLoop()
	}
}

// Close stops accepting, cancels every in-flight request and closes every
// connection.
func (s *Server) Close() {
	s.cancel()
	s.mu.Lock()
	ln := s.ln
	conns := make([]*ServerConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, sc := range conns {
		sc.close()
	}
}

// ServerConn is one accepted connection. Handlers use it to identify the
// peer.
type ServerConn struct {
	srv *Server
	nc  net.Conn

	wmu  sync.Mutex
	wbuf []byte

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc
	closedMu sync.Once
}

// RemoteAddr reports the peer address.
func (sc *ServerConn) RemoteAddr() string { return sc.nc.RemoteAddr().String() }

func (sc *ServerConn) readLoop() {
	defer sc.close()
	var buf []byte
	for {
		f, nb, err := ReadFrame(sc.nc, buf)
		buf = nb
		if err != nil {
			return
		}
		switch {
		case f.Type == TypeCancel:
			sc.mu.Lock()
			cancel := sc.inflight[f.RequestID]
			sc.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		default:
			ctx, cancel := context.WithCancel(sc.srv.ctx)
			sc.mu.Lock()
			sc.inflight[f.RequestID] = cancel
			sc.mu.Unlock()
			req := f
			req.Payload = append([]byte(nil), f.Payload...)
			go func() {
				defer func() {
					sc.mu.Lock()
					delete(sc.inflight, req.RequestID)
					sc.mu.Unlock()
					cancel()
				}()
				typ, payload := sc.srv.handler(ctx, sc, req)
				_ = sc.Push(Frame{Type: typ, RequestID: req.RequestID, Payload: payload})
			}()
		}
	}
}

// Push writes one frame to the peer. Safe for concurrent use.
func (sc *ServerConn) Push(f Frame) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	buf, err := WriteFrame(sc.nc, f, sc.wbuf)
	sc.wbuf = buf
	return err
}

func (sc *ServerConn) close() {
	sc.closedMu.Do(func() {
		_ = sc.nc.Close()
		sc.mu.Lock()
		for id, cancel := range sc.inflight {
			delete(sc.inflight, id)
			cancel()
		}
		sc.mu.Unlock()
		sc.srv.mu.Lock()
		delete(sc.srv.conns, sc)
		sc.srv.mu.Unlock()
	})
}
