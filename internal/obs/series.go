package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"github.com/caba-sim/caba/internal/snapshot"
)

// maxSeriesLen bounds the number of samples a serialized Series may
// claim, so a corrupt snapshot cannot force a huge allocation before the
// decoder's length checks catch it.
const maxSeriesLen = 1 << 22

// Sample is one row of the metrics time-series: the machine's gauges and
// windowed rates observed at the end of a sampling window. Rates (IPC,
// issue fractions, hit rates, bus busy fraction) are computed over the
// window that ends at Cycle; occupancies (MSHR, assist warps) are
// instantaneous at Cycle; CompRatio is the cumulative compression ratio
// so far.
type Sample struct {
	// Cycle is the simulated core cycle at which the window closed.
	Cycle uint64 `json:"cycle"`
	// IPC is thread instructions retired per core cycle over the window.
	IPC float64 `json:"ipc"`
	// IssueActive..IssueIdle split the window's issue slots into the
	// paper's Figure-1 categories; the five fractions sum to 1.
	IssueActive float64 `json:"issue_active"`
	IssueComp   float64 `json:"issue_comp"`
	IssueMem    float64 `json:"issue_mem"`
	IssueDep    float64 `json:"issue_dep"`
	IssueIdle   float64 `json:"issue_idle"`
	// L1HitRate and L2HitRate are hits/(hits+misses) over the window's
	// accesses at each level, or 0 when the window saw no accesses.
	L1HitRate float64 `json:"l1_hit_rate"`
	L2HitRate float64 `json:"l2_hit_rate"`
	// MSHROcc is the fraction of L1 MSHR entries outstanding at Cycle,
	// averaged across SMs.
	MSHROcc float64 `json:"mshr_occ"`
	// DRAMBusy is the fraction of the window's aggregate data-bus cycles
	// (all channels) spent transferring data.
	DRAMBusy float64 `json:"dram_busy"`
	// AWOcc is the fraction of Assist Warp Table entries live at Cycle,
	// averaged across SMs.
	AWOcc float64 `json:"aw_occ"`
	// CompRatio is the cumulative memory-side compression ratio
	// (uncompressed bytes / compressed bytes) observed so far, or 0
	// before any line has been compressed.
	CompRatio float64 `json:"comp_ratio"`
}

// Series is a columnar, append-only metrics time-series: one entry per
// column per recorded Sample. Columns stay parallel — Append is the only
// mutator — so row i can always be reassembled with At(i).
type Series struct {
	Cycle       []uint64
	IPC         []float64
	IssueActive []float64
	IssueComp   []float64
	IssueMem    []float64
	IssueDep    []float64
	IssueIdle   []float64
	L1HitRate   []float64
	L2HitRate   []float64
	MSHROcc     []float64
	DRAMBusy    []float64
	AWOcc       []float64
	CompRatio   []float64
}

// Append records one sample as the new last row.
func (s *Series) Append(sm Sample) {
	s.Cycle = append(s.Cycle, sm.Cycle)
	s.IPC = append(s.IPC, sm.IPC)
	s.IssueActive = append(s.IssueActive, sm.IssueActive)
	s.IssueComp = append(s.IssueComp, sm.IssueComp)
	s.IssueMem = append(s.IssueMem, sm.IssueMem)
	s.IssueDep = append(s.IssueDep, sm.IssueDep)
	s.IssueIdle = append(s.IssueIdle, sm.IssueIdle)
	s.L1HitRate = append(s.L1HitRate, sm.L1HitRate)
	s.L2HitRate = append(s.L2HitRate, sm.L2HitRate)
	s.MSHROcc = append(s.MSHROcc, sm.MSHROcc)
	s.DRAMBusy = append(s.DRAMBusy, sm.DRAMBusy)
	s.AWOcc = append(s.AWOcc, sm.AWOcc)
	s.CompRatio = append(s.CompRatio, sm.CompRatio)
}

// Len returns the number of recorded samples.
func (s *Series) Len() int { return len(s.Cycle) }

// At reassembles row i as a Sample. It panics if i is out of range,
// matching slice-index semantics.
func (s *Series) At(i int) Sample {
	return Sample{
		Cycle:       s.Cycle[i],
		IPC:         s.IPC[i],
		IssueActive: s.IssueActive[i],
		IssueComp:   s.IssueComp[i],
		IssueMem:    s.IssueMem[i],
		IssueDep:    s.IssueDep[i],
		IssueIdle:   s.IssueIdle[i],
		L1HitRate:   s.L1HitRate[i],
		L2HitRate:   s.L2HitRate[i],
		MSHROcc:     s.MSHROcc[i],
		DRAMBusy:    s.DRAMBusy[i],
		AWOcc:       s.AWOcc[i],
		CompRatio:   s.CompRatio[i],
	}
}

// WriteJSONL writes the series as JSON Lines: one Sample object per
// line, in row order, using the json tags on Sample as keys.
func (s *Series) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := 0; i < s.Len(); i++ {
		if err := enc.Encode(s.At(i)); err != nil {
			return fmt.Errorf("series jsonl row %d: %w", i, err)
		}
	}
	return nil
}

// csvHeader lists the CSV column names, matching the Sample json tags
// and the Series column order.
var csvHeader = []string{
	"cycle", "ipc",
	"issue_active", "issue_comp", "issue_mem", "issue_dep", "issue_idle",
	"l1_hit_rate", "l2_hit_rate", "mshr_occ", "dram_busy", "aw_occ", "comp_ratio",
}

// WriteCSV writes the series as CSV with a header row. Floats use the
// shortest round-trippable representation (strconv 'g', 64-bit).
func (s *Series) WriteCSV(w io.Writer) error {
	b := make([]byte, 0, 256)
	for i, h := range csvHeader {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, h...)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("series csv header: %w", err)
	}
	for i := 0; i < s.Len(); i++ {
		row := s.At(i)
		b = b[:0]
		b = strconv.AppendUint(b, row.Cycle, 10)
		for _, f := range []float64{
			row.IPC,
			row.IssueActive, row.IssueComp, row.IssueMem, row.IssueDep, row.IssueIdle,
			row.L1HitRate, row.L2HitRate, row.MSHROcc, row.DRAMBusy, row.AWOcc, row.CompRatio,
		} {
			b = append(b, ',')
			b = strconv.AppendFloat(b, f, 'g', -1, 64)
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("series csv row %d: %w", i, err)
		}
	}
	return nil
}

// Snap codes the series in a checkpoint: the row count, then the rows in
// column order. Decoding replaces the receiver's contents.
func (s *Series) Snap(c *snapshot.Codec) {
	n := s.Len()
	c.Len(&n, maxSeriesLen)
	if c.Loading() {
		*s = Series{}
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var row Sample
		if !c.Loading() {
			row = s.At(i)
		}
		c.U64(&row.Cycle)
		for _, f := range []*float64{
			&row.IPC,
			&row.IssueActive, &row.IssueComp, &row.IssueMem, &row.IssueDep, &row.IssueIdle,
			&row.L1HitRate, &row.L2HitRate, &row.MSHROcc, &row.DRAMBusy, &row.AWOcc, &row.CompRatio,
		} {
			c.F64(f)
		}
		if c.Loading() {
			s.Append(row)
		}
	}
}
