package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softtimers/internal/emu"
	"softtimers/internal/httpserv"
	"softtimers/internal/sim"
)

const (
	emuSetups    = 15
	emuBodyBytes = 6144
	emuRate      = 50.0 // open-loop Poisson arrivals per second
	emuConns     = 2    // concurrent connections, both phases
	emuTimeout   = 5 * time.Second
)

// emuConfig is the emulated server the workload drives. Its model seed is
// part of the server's configuration, fixed like its file size; -seed
// generates the load.
func emuConfig() emu.Config {
	return emu.Config{
		Seed:               1,
		Kind:               httpserv.Flash,
		FileBytes:          emuBodyBytes,
		PacerInterval:      100 * sim.Microsecond,
		PacerBurstInterval: 20 * sim.Microsecond,
	}
}

// startEmu builds the emulated server and starts serving, recording the
// set-up span: from emu.New until the server has answered one request
// correctly, the proof that it is ready to serve.
func startEmu(rec *recorder, cfg emu.Config) (*emu.Server, error) {
	var s *emu.Server
	var err error
	rec.do("setup", func() {
		if s, err = emu.New(cfg); err != nil {
			return
		}
		go s.Serve()
		if r := get(s.Addr().String()); r.err != nil {
			err = fmt.Errorf("first request to the emulated server: %w", r.err)
		}
	})
	if err != nil && s != nil {
		s.Stop()
	}
	return s, err
}

// loopbackOK reports whether loopback TCP sockets are usable here.
func loopbackOK() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	c, err := net.DialTimeout("tcp", ln.Addr().String(), emuTimeout)
	if err != nil {
		return err
	}
	c.Close()
	return <-done
}

// request is one HTTP exchange as the client saw it.
type request struct {
	due, sent, end      time.Time
	connect, ttfb, body time.Duration
	err                 error
}

// get makes one non-persistent request: dial, send, read the status and
// headers, then exactly the advertised body. connect covers the dial,
// ttfb the wait from the request to the first response byte (the model's
// processing), body the paced transmission after it.
func get(addr string) (r request) {
	r.sent = time.Now()
	defer func() { r.end = time.Now() }()
	c, err := net.DialTimeout("tcp", addr, emuTimeout)
	if err != nil {
		r.err = fmt.Errorf("dial: %w", err)
		return r
	}
	defer c.Close()
	connected := time.Now()
	r.connect = connected.Sub(r.sent)
	if err := c.SetDeadline(r.sent.Add(emuTimeout)); err != nil {
		r.err = err
		return r
	}
	if _, err := io.WriteString(c, "GET /file HTTP/1.0\r\n\r\n"); err != nil {
		r.err = fmt.Errorf("send: %w", err)
		return r
	}
	br := bufio.NewReader(c)
	if _, err := br.Peek(1); err != nil {
		r.err = fmt.Errorf("await response: %w", err)
		return r
	}
	first := time.Now()
	r.ttfb = first.Sub(connected)
	r.err = readResponse(br, emuBodyBytes)
	r.body = time.Since(first)
	return r
}

// readResponse reads one HTTP/1.0 response and checks it: status 200, a
// Content-Length of want, and want body bytes.
func readResponse(br *bufio.Reader, want int) error {
	status, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("read status: %w", err)
	}
	if !strings.HasPrefix(status, "HTTP/1.0 200") {
		return fmt.Errorf("status %q", strings.TrimSpace(status))
	}
	length := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("read header: %w", err)
		}
		if line == "\r\n" {
			break
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			length = strings.TrimSpace(v)
		}
	}
	if length != fmt.Sprint(want) {
		return fmt.Errorf("Content-Length %q, want %d", length, want)
	}
	n, err := io.CopyN(io.Discard, br, int64(want))
	if err != nil {
		return fmt.Errorf("short body: %d of %d bytes: %w", n, want, err)
	}
	return nil
}

// arrivals returns Poisson arrival offsets at rate per second over d,
// generated from seed.
func arrivals(seed uint64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x656d752d68747470))
	var out []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		off := time.Duration(at * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// openLoop issues one request per arrival offset, starting at start, on at
// most emuConns connections at a time. A request due while both are busy
// goes out late, but is still timed from its due time.
func openLoop(addr string, start time.Time, offsets []time.Duration) []request {
	out := make([]request, len(offsets))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < emuConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					return
				}
				due := start.Add(offsets[i])
				time.Sleep(time.Until(due))
				r := get(addr)
				r.due = due
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps emuConns connections busy back to back for d.
func closedLoop(addr string, d time.Duration) []request {
	deadline := time.Now().Add(d)
	per := make([][]request, emuConns)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := get(addr)
				r.due = r.sent
				per[w] = append(per[w], r)
			}
		}()
	}
	wg.Wait()
	var out []request
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// runEmu runs the emu-http workload: an emulated Flash server on loopback,
// an open loop of Poisson arrivals for two thirds of -seconds, then a
// closed loop for the last third.
func runEmu(cfg config) (*result, error) {
	if err := loopbackOK(); err != nil {
		return nil, fmt.Errorf("loopback TCP sockets are unavailable, so emu-http cannot run: %w", err)
	}
	res := newResult()
	rec := newRecorder(cfg.Workload)
	ecfg := emuConfig()
	var srv *emu.Server
	var served time.Time // when the kept server's virtual clock began
	for i := 0; i < cfg.setups(emuSetups); i++ {
		if srv != nil {
			srv.Stop()
		}
		runtime.GC()
		var err error
		served = time.Now()
		if srv, err = startEmu(rec, ecfg); err != nil {
			return nil, err
		}
	}
	defer srv.Stop()
	res.Values["setup_s"] = median(rec.seconds("setup"))

	var prof *profiler
	if cfg.Trace {
		var err error
		if prof, err = startProfile(cfg.TraceDir); err != nil {
			return nil, err
		}
	}
	total := time.Duration(cfg.Seconds * float64(time.Second))
	openD := total * 2 / 3
	offsets := arrivals(cfg.Seed, emuRate, openD)
	addr := srv.Addr().String()
	var open, closed []request
	var closedS float64
	ph := startPhase()
	rec.do("run", func() {
		rec.do("load/open", func() { open = openLoop(addr, time.Now().Add(10*time.Millisecond), offsets) })
		closedS = rec.do("load/closed", func() { closed = closedLoop(addr, total-openD) })
	})
	ps := ph.end()
	var fold *profileFold
	if prof != nil {
		fold = prof.stop(res)
	}
	res.Values["live_heap_mb"] = liveHeapMB()
	srv.Stop()
	wall := time.Since(served).Seconds()

	res.Values["run_s"] = rec.total("run")
	ps.record(res)
	var lat, connect, ttfb, body []float64
	var lateMax time.Duration
	for _, r := range open {
		lateMax = max(lateMax, r.sent.Sub(r.due))
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.end.Sub(r.due)))
		connect = append(connect, ms(r.connect))
		ttfb = append(ttfb, ms(r.ttfb))
		body = append(body, ms(r.body))
	}
	all := append(open, closed...)
	res.Attempted, res.Failed = emuFailures(all)
	for _, r := range all {
		if r.err != nil && len(res.Problems) < 5 {
			res.problemf("request: %v", r.err)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no open-loop request succeeded")
	}
	_, closedFailed := emuFailures(closed)
	res.Values["latency_p50_ms"] = percentile(lat, 50)
	res.Values["peak_rps"] = float64(len(closed)-closedFailed) / closedS

	v := res.Values
	v["emu.latency_p99_ms"] = percentile(lat, 99)
	v["emu.connect_ms_p50"] = percentile(connect, 50)
	v["emu.ttfb_ms_p50"] = percentile(ttfb, 50)
	v["emu.body_ms_p50"] = percentile(body, 50)
	v["emu.gen_late_max_ms"] = ms(lateMax)
	ti := srv.TriggerIntervals()
	v["emu.trigger_interval_p50_us"] = ti.Percentile(50)
	v["emu.trigger_interval_p99_us"] = ti.Percentile(99)
	clk := srv.Clock()
	v["emu.clock_lag_p99_us"] = clk.LagHist.Quantile(0.99)
	v["emu.clock_bursts"] = float64(clk.Bursts())
	v["emu.clock_waits"] = float64(clk.Waits())
	v["emu.injected"] = float64(clk.Injected())
	v["emu.completed"] = float64(srv.Completed())
	v["httpserv.completed"] = float64(srv.Completed())
	if ok := res.Attempted - res.Failed; srv.Completed() < int64(ok) {
		res.problemf("model completed %d responses, clients received %d", srv.Completed(), ok)
	}

	h := srv.Host()
	snapshotLayers(v, h.Snapshot())
	v["sim.events_per_s"] = v["sim.events"] / wall
	v["sim.speed"] = h.K.Now().Seconds() / wall

	if cfg.Trace {
		if fold != nil {
			// emu installs its own trigger probe, so no timing sink can be
			// interposed: the facility check's share comes from the profile.
			v["core.trigger_frac"] = fold.TriggerCum
			// The traced run adds only the profiler and a few spans to an
			// otherwise identical run; the profiler's own share is its
			// overhead.
			v["trace.overhead_frac"] = fold.Profiler
		}
		if err := rec.write(cfg.TraceDir, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// emuFailures counts requests that failed to dial, timed out, or returned
// a wrong response.
func emuFailures(rs []request) (attempted, failed int) {
	for _, r := range rs {
		if r.err != nil {
			failed++
		}
	}
	return len(rs), failed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
