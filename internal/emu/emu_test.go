package emu

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"softtimers/internal/sim"
	"softtimers/internal/stats"
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
// engine is asleep until its next event and must be woken, not waited
// out).
// TestNewRejectsNegativeConfig: a negative response size or pacer interval
// fails New with an error, before any socket is opened, instead of serving
// nothing or panicking in the pacer.
func TestNewRejectsNegativeConfig(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"file", Config{FileBytes: -1}},
		{"pace", Config{PacerInterval: -5 * sim.Microsecond}},
		{"burst", Config{PacerBurstInterval: -5 * sim.Microsecond}},
	} {
		s, err := New(c.cfg)
		if err == nil {
			s.Stop()
			t.Errorf("%s: New(%+v) returned no error", c.name, c.cfg)
		}
	}
}

// TestIntervalsPercentileCappedAtMax: percentiles interpolate within a
// 1 µs bucket but never pass the exact maximum, Percentile(100) is that
// maximum, Median is Percentile(50), and Mean is exact.
func TestIntervalsPercentileCappedAtMax(t *testing.T) {
	d := Intervals{hist: stats.NewHistogram(1, 20_000)}
	for _, us := range []float64{10.25, 10.75, 30.5, 99.25} {
		d.add(us)
	}
	if got := d.Percentile(100); got != 99.25 {
		t.Errorf("Percentile(100) = %v, want the maximum 99.25", got)
	}
	if got := d.Percentile(99.9); got > 99.25 {
		t.Errorf("Percentile(99.9) = %v, past the maximum 99.25", got)
	}
	if d.Median() != d.Percentile(50) {
		t.Errorf("Median %v != Percentile(50) %v", d.Median(), d.Percentile(50))
	}
	if got, want := d.Mean(), (10.25+10.75+30.5+99.25)/4; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestStopIdle(t *testing.T) {
	dialable(t)
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go s.Serve()
	time.Sleep(20 * time.Millisecond) // let Serve go to sleep
	start := time.Now()
	s.Stop()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Stop took %v", d)
	}
	s.Stop() // idempotent
}

// TestStopWithoutServe: Stop on a server that was never served closes its
// listener and returns, leaving no goroutine behind, and a later Serve
// returns at once. Stop runs on a goroutine with a timeout, so a Stop that
// blocks fails the test instead of hanging the suite.
func TestStopWithoutServe(t *testing.T) {
	dialable(t)
	base := runtime.NumGoroutine()
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Clock() != s.clk {
		t.Fatal("Clock does not return the server's clock")
	}
	stopped := make(chan struct{})
	go func() {
		s.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Stop on an unserved server still blocked after 1 s")
	}
	if c, err := net.DialTimeout("tcp", s.Addr().String(), time.Second); err == nil {
		c.Close()
		t.Error("listener still accepts after Stop")
	}
	served := make(chan struct{})
	go func() {
		s.Serve()
		close(served)
	}()
	select {
	case <-served:
	case <-time.After(time.Second):
		t.Fatal("Serve after Stop still running after 1 s")
	}
	deadline := time.Now().Add(2 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive 2 s after Stop; %d before New", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStopClosesConnections: Stop closes every accepted socket, so a
// client that sent half a request and waits sees its connection close,
// and no goroutine the server started outlives it.
func TestStopClosesConnections(t *testing.T) {
	dialable(t)
	base := runtime.NumGoroutine()
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go s.Serve()
	c, err := net.DialTimeout("tcp", s.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /file HTTP/1.0\r\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	for accepted := false; !accepted; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		accepted = s.nextFlow == 1
		s.mu.Unlock()
	}
	s.Stop()

	c.SetReadDeadline(time.Now().Add(time.Second))
	// EOF, or a reset if the reader had not yet taken the bytes: either
	// way the server closed the socket. A timeout means it did not.
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("client read after Stop: %v; want EOF within 1 s", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive 2 s after Stop; %d before New", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
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
