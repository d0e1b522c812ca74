// Command stserve runs the real-time emulation mode (package emu): the
// simulated soft-timer web server bound to a real TCP listener, answering
// actual HTTP requests with responses paced by the soft-timer Pacer. It is
// the live counterpart of stbench's virtual-time experiments — run it,
// point curl at it, and the response bytes arrive at the pacer's cadence.
//
// Usage:
//
//	stserve                         # serve on 127.0.0.1:0 until SIGINT
//	stserve -addr :8080             # explicit listen address
//	stserve -duration 10s           # serve for a fixed wall-clock window
//	stserve -kind apache -file 8192 # server model and response size
//	stserve -pace 200us -burst 40us # pacer target and catch-up intervals
//	stserve -selftest               # 2s loopback self-check (CI smoke);
//	                                # prints SKIP and exits 0 on runners
//	                                # without loopback sockets
//
// On exit, stserve prints the run's measurement summary: completed
// responses, the measured trigger-interval distribution (median/p99, the
// paper's Table 1 quantities, here from real timestamps), and the
// emulation clock's lag accounting.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"softtimers/internal/emu"
	"softtimers/internal/httpserv"
	"softtimers/internal/sim"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:0", "TCP listen address")
		seed     = flag.Uint64("seed", 1, "simulated host seed")
		kind     = flag.String("kind", "flash", "server model: flash or apache")
		file     = flag.Int("file", 6144, "response body size in bytes")
		pace     = flag.Duration("pace", 100*time.Microsecond, "pacer target packet interval")
		burst    = flag.Duration("burst", 20*time.Microsecond, "pacer catch-up interval")
		duration = flag.Duration("duration", 0, "serve for this long, then exit (0: until SIGINT)")
		selftest = flag.Bool("selftest", false, "run the 2s loopback self-check and exit")
	)
	flag.Parse()
	if err := checkFlags(*file, *pace, *burst); err != nil {
		fmt.Fprintf(os.Stderr, "stserve: %v\n", err)
		os.Exit(2)
	}

	var k httpserv.Kind
	switch *kind {
	case "flash":
		k = httpserv.Flash
	case "apache":
		k = httpserv.Apache
	default:
		fmt.Fprintf(os.Stderr, "stserve: unknown -kind %q (want flash or apache)\n", *kind)
		os.Exit(2)
	}
	cfg := emu.Config{
		Addr:               *addr,
		Seed:               *seed,
		Kind:               k,
		FileBytes:          *file,
		PacerInterval:      sim.FromStd(*pace),
		PacerBurstInterval: sim.FromStd(*burst),
	}

	if *selftest {
		os.Exit(runSelftest(cfg))
	}

	s, err := emu.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("stserve: %s model serving %d-byte responses on http://%s (pace %v, burst %v)\n",
		k, *file, s.Addr(), *pace, *burst)

	done := make(chan struct{})
	go func() { s.Serve(); close(done) }()
	if *duration > 0 {
		select {
		case <-time.After(*duration):
		case <-done:
		}
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		select {
		case <-sig:
		case <-done:
		}
	}
	s.Stop()
	report(s)
}

// checkFlags rejects sizes and intervals the server would not serve as
// given: the emulator and httpserv replace a zero -file, -pace or -burst
// with their defaults, so each must be positive for the banner to hold.
func checkFlags(file int, pace, burst time.Duration) error {
	if file < 1 {
		return fmt.Errorf("-file %d: need at least 1 byte", file)
	}
	if pace <= 0 {
		return fmt.Errorf("-pace %v: need a positive interval", pace)
	}
	if burst <= 0 {
		return fmt.Errorf("-burst %v: need a positive interval", burst)
	}
	return nil
}

// report prints the run's measurement summary.
func report(s *emu.Server) {
	ti := s.TriggerIntervals()
	c := s.Clock()
	fmt.Printf("responses completed: %d\n", s.Completed())
	if ti.N() > 0 {
		fmt.Printf("trigger intervals (real): n=%d median=%.1fus p99=%.1fus\n",
			ti.N(), ti.Median(), ti.Percentile(99))
	} else {
		fmt.Printf("trigger intervals (real): none measured\n")
	}
	fmt.Printf("clock lag: samples=%d max=%v bursts=%d waits=%d injected=%d\n",
		c.LagHist.N(), c.MaxLag().Std(), c.Bursts(), c.Waits(), c.Injected())
}

// runSelftest is the CI smoke path: serve on loopback, fetch responses
// with a plain HTTP client for ~2s of wall time, and assert that at least
// one response was paced out and that the emulation clock recorded lag
// accounting. Runners without loopback sockets print SKIP and exit 0.
func runSelftest(cfg emu.Config) int {
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err != nil {
		fmt.Printf("SKIP: no loopback sockets on this runner (%v)\n", err)
		return 0
	} else {
		ln.Close()
	}
	cfg.Addr = "127.0.0.1:0"
	s, err := emu.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stserve selftest: %v\n", err)
		return 1
	}
	go s.Serve()
	defer s.Stop()

	url := "http://" + s.Addr().String() + "/file"
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(2 * time.Second)
	fetched, bytes := 0, 0
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stserve selftest: GET: %v\n", err)
			return 1
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "stserve selftest: read: %v\n", err)
			return 1
		}
		fetched++
		bytes += len(b)
	}
	s.Stop()

	if s.Completed() < 1 {
		fmt.Fprintf(os.Stderr, "stserve selftest: no paced responses completed (fetched %d over HTTP)\n", fetched)
		return 1
	}
	if s.Clock().LagHist.N() == 0 {
		fmt.Fprintf(os.Stderr, "stserve selftest: clock lag histogram is empty\n")
		return 1
	}
	ti := s.TriggerIntervals()
	fmt.Printf("selftest OK: %d responses (%d HTTP fetches, %d bytes), trigger median=%.1fus p99=%.1fus, lag samples=%d max=%v\n",
		s.Completed(), fetched, bytes, ti.Median(), ti.Percentile(99),
		s.Clock().LagHist.N(), s.Clock().MaxLag().Std())
	return 0
}
