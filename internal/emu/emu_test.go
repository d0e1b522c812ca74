package emu

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// dialable reports whether this runner allows loopback sockets; sandboxed
// CI runners may not, and the emulation tests skip there.
func dialable(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback sockets on this runner: %v", err)
	}
	ln.Close()
}

// TestServeLoopbackHTTP drives the full emulation path end to end: a real
// HTTP request over a loopback socket, answered by the simulated server
// with soft-timer-paced writes, plus the measurement side effects (trigger
// intervals from real timestamps, a paced completion in the model).
func TestServeLoopbackHTTP(t *testing.T) {
	dialable(t)
	s, err := New(Config{FileBytes: 4096})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go s.Serve()
	defer s.Stop()

	c, err := net.DialTimeout("tcp", s.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(c, "GET /file HTTP/1.0\r\n\r\n")

	br := bufio.NewReader(c)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read status: %v", err)
	}
	if !strings.HasPrefix(status, "HTTP/1.0 200") {
		t.Fatalf("status = %q; want HTTP/1.0 200", strings.TrimSpace(status))
	}
	// Headers end at the blank line; then the paced body follows.
	var contentLength string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read header: %v", err)
		}
		if line == "\r\n" {
			break
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			contentLength = strings.TrimSpace(v)
		}
	}
	if contentLength != "4096" {
		t.Errorf("Content-Length = %q; want 4096", contentLength)
	}
	body, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if len(body) != 4096 {
		t.Errorf("body = %d bytes; want 4096", len(body))
	}

	s.Stop()
	if s.Completed() < 1 {
		t.Errorf("model completed %d responses; want >= 1", s.Completed())
	}
	if s.TriggerIntervals().N() == 0 {
		t.Error("no trigger intervals measured")
	}
	if snap := s.Host().Snapshot(); snap == nil {
		t.Error("host snapshot is nil")
	}
}

// TestStopIdle ensures Stop returns promptly from an idle server (the
// engine is asleep inside a slice and must be woken, not waited out).
func TestStopIdle(t *testing.T) {
	dialable(t)
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go s.Serve()
	time.Sleep(20 * time.Millisecond) // let Serve enter a slice
	start := time.Now()
	s.Stop()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Stop took %v", d)
	}
	s.Stop() // idempotent
}

// TestHeaderEndSplitPoints feeds requests to the terminator scanner split
// in two at every byte offset: each must report exactly one terminator, in
// the piece holding its final byte, and near misses must report none.
func TestHeaderEndSplitPoints(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"GET /file HTTP/1.0\r\n\r\n", true},
		{"GET /file HTTP/1.0\r\nHost: x\r\n\r\n", true},
		{"GET /file HTTP/1.0\r\r\n\r\n", true},
		{"GET /file HTTP/1.0\r\n\r\r\n", false},
		{"GET /file HTTP/1.0\r\n\n\r\n", false},
		{"GET /file HTTP/1.0\n\n", false},
	}
	for _, tc := range cases {
		for i := 0; i <= len(tc.in); i++ {
			var h headerEnd
			first := h.scan([]byte(tc.in[:i]))
			second := h.scan([]byte(tc.in[i:]))
			wantFirst := tc.want && i == len(tc.in)
			wantSecond := tc.want && i < len(tc.in)
			if first != wantFirst || second != wantSecond {
				t.Errorf("%q split at %d: found (%v, %v), want (%v, %v)",
					tc.in, i, first, second, wantFirst, wantSecond)
			}
		}
	}
}

// TestServeSplitTerminator sends a request whose header terminator is
// split across two writes 100 ms apart — the final "\n" alone — and
// expects the response's status line.
func TestServeSplitTerminator(t *testing.T) {
	dialable(t)
	s, err := New(Config{FileBytes: 1024})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go s.Serve()
	defer s.Stop()

	c, err := net.DialTimeout("tcp", s.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.WriteString(c, "GET /file HTTP/1.0\r\n\r"); err != nil {
		t.Fatalf("write: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	if _, err := io.WriteString(c, "\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	status, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("no status line within 3 s: %v", err)
	}
	if !strings.HasPrefix(status, "HTTP/1.0 200") {
		t.Fatalf("status = %q; want HTTP/1.0 200", strings.TrimSpace(status))
	}
}
