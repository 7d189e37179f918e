package comms

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

const (
	testTypeEcho = TypeApp
	testTypeSlow = TypeApp + 1
	testTypeResp = TypeApp + 3
)

func startTestServer(t *testing.T, h Handler) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewServer(h)
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(s.Close)
	return s, ln.Addr().String()
}

func TestConnMultiplexing(t *testing.T) {
	_, addr := startTestServer(t, func(ctx context.Context, sc *ServerConn, f Frame) (uint8, []byte) {
		return testTypeResp, append([]byte("echo:"), f.Payload...)
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("req-%d", i))
			f, err := c.Do(context.Background(), testTypeEcho, payload)
			if err != nil {
				t.Errorf("Do(%d): %v", i, err)
				return
			}
			if string(f.Payload) != "echo:"+string(payload) {
				t.Errorf("Do(%d): cross-wired response %q", i, f.Payload)
			}
		}(i)
	}
	wg.Wait()
}

func TestConnCancellationPropagates(t *testing.T) {
	canceled := make(chan struct{})
	_, addr := startTestServer(t, func(ctx context.Context, sc *ServerConn, f Frame) (uint8, []byte) {
		if f.Type == testTypeSlow {
			select {
			case <-ctx.Done():
				close(canceled)
			case <-time.After(10 * time.Second):
			}
			return testTypeResp, []byte("late")
		}
		return testTypeResp, nil
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, testTypeSlow, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Do under cancel: %v", err)
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("server handler never observed the cancellation")
	}
	// The connection stays usable for later requests.
	if _, err := c.Do(context.Background(), testTypeEcho, nil); err != nil {
		t.Fatalf("Do after cancel: %v", err)
	}
}

func TestConnFailsPendingOnDisconnect(t *testing.T) {
	srv, addr := startTestServer(t, func(ctx context.Context, sc *ServerConn, f Frame) (uint8, []byte) {
		time.Sleep(10 * time.Second) // ignore ctx: only the socket teardown can end this
		return testTypeResp, nil
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), testTypeSlow, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Do succeeded across a dead connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do hung after server close")
	}
	if c.Err() == nil {
		t.Fatal("connection reports healthy after peer close")
	}
}
