package experiments

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"softtimers/internal/emu"
	"softtimers/internal/httpserv"
	"softtimers/internal/metrics"
)

// EmuTriggerRow is one emulation run: a server model answering real HTTP
// over loopback, with the trigger-interval distribution measured from real
// timestamps (the paper's Table 1 methodology, on this machine).
type EmuTriggerRow struct {
	Name      string
	Completed int64
	MaxUS     float64
	MeanUS    float64
	MedianUS  float64
	P99US     float64
	// Lag accounting from the emulation clock.
	LagP50US float64
	LagMaxUS float64
	// Paper holds the published Table 1 values for the nearest workload
	// (Max, Mean, Median, >100µs%, >150µs%).
	Paper [5]float64
}

// EmuTriggerResult is the emu-trigger-interval experiment's outcome.
type EmuTriggerResult struct {
	Rows []EmuTriggerRow
	// Skipped is non-empty when the runner has no loopback sockets; the
	// table then carries the reason instead of rows.
	Skipped   string
	Telemetry *metrics.Snapshot
}

// RunEmuTriggerInterval measures real trigger-interval distributions: for
// each server model it binds an emulation server (package emu) to a
// loopback socket, saturates it with real HTTP clients for a wall-clock
// window derived from sc.Measure, and reads the trigger-interval
// distribution recorded from real timestamps. Results depend on the machine and are
// not reproducible, by design, so the experiment is not in Order.
func RunEmuTriggerInterval(sc Scale) *EmuTriggerResult {
	res := &EmuTriggerResult{}
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err != nil {
		res.Skipped = fmt.Sprintf("no loopback sockets on this runner: %v", err)
		return res
	} else {
		ln.Close()
	}

	// The virtual measure window doubles as the wall window, clamped so a
	// full-scale invocation does not pin the machine for 10 s per row.
	window := sc.Measure.Std()
	if window > 3*time.Second {
		window = 3 * time.Second
	}
	if window < 500*time.Millisecond {
		window = 500 * time.Millisecond
	}

	models := []struct {
		name  string
		kind  httpserv.Kind
		paper string
	}{
		{"ST-Flash (emu)", httpserv.Flash, "ST-Flash"},
		{"ST-Apache (emu)", httpserv.Apache, "ST-Apache"},
	}
	snaps := make([]*metrics.Snapshot, 0, len(models))
	for _, m := range models {
		s, err := emu.New(emu.Config{Seed: sc.Seed, Kind: m.kind})
		if err != nil {
			res.Skipped = fmt.Sprintf("emu server: %v", err)
			return res
		}
		go s.Serve()
		driveHTTP(s.Addr().String(), window, 4)
		s.Stop()

		ti := s.TriggerIntervals()
		lag := s.Clock().LagHist
		row := EmuTriggerRow{
			Name:      m.name,
			Completed: s.Completed(),
			LagP50US:  lag.Quantile(0.5),
			LagMaxUS:  s.Clock().MaxLag().Micros(),
			Paper:     paperTable1[m.paper],
		}
		if ti.N() > 0 {
			row.MaxUS = ti.Percentile(100)
			row.MeanUS = ti.Mean()
			row.MedianUS = ti.Median()
			row.P99US = ti.Percentile(99)
		}
		res.Rows = append(res.Rows, row)
		snaps = append(snaps, s.Host().Snapshot())
	}
	res.Telemetry = mergeTelemetry(snaps)
	return res
}

// driveHTTP saturates addr with workers sequential HTTP fetchers for the
// given wall window.
func driveHTTP(addr string, window time.Duration, workers int) {
	url := "http://" + addr + "/file"
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for time.Now().Before(deadline) {
				resp, err := client.Get(url)
				if err != nil {
					break
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					break
				}
			}
		}()
	}
	wg.Wait()
}

// Table renders the emulation measurement with the paper's Table 1 values
// alongside.
func (r *EmuTriggerResult) Table() *Table {
	t := &Table{
		Title: "Emulation — real trigger-interval distribution vs Table 1",
		Columns: []string{"model", "responses", "max(us)", "mean(us)", "median(us)",
			"p99(us)", "lag p50/max(us)", "paper(mean/med)"},
	}
	if r.Skipped != "" {
		t.Notes = append(t.Notes, "SKIPPED: "+r.Skipped)
		return t
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Name, fmt.Sprintf("%d", row.Completed),
			f0(row.MaxUS), f2(row.MeanUS), f1(row.MedianUS), f1(row.P99US),
			f1(row.LagP50US) + "/" + f0(row.LagMaxUS),
			f2(row.Paper[1]) + "/" + f0(row.Paper[2]),
		})
	}
	t.Notes = append(t.Notes,
		"measured from real timestamps at trigger states on this machine; the paper's",
		"Pentium-II/300 FreeBSD numbers are shown for shape comparison, not equality —",
		"a busy loopback server checks triggers far more often than a 1999 kernel.",
		"lag p50/max is the emulation clock's catch-up accounting (engine behind wall clock).")
	if len(r.Rows) > 0 {
		t.Metrics = map[string]float64{
			"flash_median_us": r.Rows[0].MedianUS,
			"flash_p99_us":    r.Rows[0].P99US,
			"flash_responses": float64(r.Rows[0].Completed),
			"lag_max_us":      r.Rows[0].LagMaxUS,
		}
	}
	t.Telemetry = r.Telemetry
	return t
}
