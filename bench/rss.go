package main

import (
	"os"
	"syscall"
)

// resetPeakRSS restarts the process's peak-resident-set count (Linux:
// writing 5 to /proc/self/clear_refs sets it to the current resident
// set), so that peakRSSMB then reads the peak since this call.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set in MB (getrusage maxrss).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// rssMeter records the peak resident set of each rep of a run.
type rssMeter struct {
	peaks []float64
	err   error // the first failure to reset or read the count
}

// start begins a rep.
func (m *rssMeter) start() {
	if err := resetPeakRSS(); err != nil && m.err == nil {
		m.err = err
	}
}

// stop ends a rep, recording its peak.
func (m *rssMeter) stop() {
	mb, err := peakRSSMB()
	if err != nil && m.err == nil {
		m.err = err
	}
	m.peaks = append(m.peaks, mb)
}

// report sets peak_rss_mb to the median rep's peak: how much memory one
// pass of the workload needs. The peaks differ from rep to rep with how
// the garbage collector's cycles meet the cells' allocations, so the
// median of the reps is steadier than the peak over the whole run.
func (m *rssMeter) report(rep *childReport) {
	if m.err != nil {
		rep.fail(-1, "peak resident set: %v", m.err)
	}
	rep.Metrics["peak_rss_mb"] = median(m.peaks)
}
