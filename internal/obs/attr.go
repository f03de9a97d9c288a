package obs

import (
	"fmt"
	"io"
	"sort"

	"github.com/caba-sim/caba/internal/snapshot"
)

// Cause is the typed reason an issue slot went unfilled. Every cycle, for
// every scheduler slot that fails to issue, exactly one (warp, Cause)
// pair is charged, so summed over a run the attribution tables account
// for every unissued slot exactly once.
type Cause uint8

const (
	// CauseScoreboard: the blamed warp's next instruction had a source or
	// destination register still owned by an in-flight instruction.
	CauseScoreboard Cause = iota
	// CauseBarrier: the blamed warp was parked at a CTA-wide barrier.
	CauseBarrier
	// CauseDrain: the blamed warp had retired its last instruction and
	// was draining — waiting for CTA-mates before the CTA frees its slot.
	CauseDrain
	// CauseLSUBusy: the blamed warp's memory instruction found no free
	// load-store-unit port (or coalescer slot) this cycle.
	CauseLSUBusy
	// CauseStoreBufFull: the blamed warp's store found the pending-store
	// buffer full with nothing evictable.
	CauseStoreBufFull
	// CauseMSHRFull: the blamed warp was replaying a load whose
	// coalesced lines had overflowed the L1 MSHR file.
	CauseMSHRFull
	// CauseSFUBusy: the blamed warp's special-function instruction found
	// no free SFU port.
	CauseSFUBusy
	// CauseALUBusy: the blamed warp's arithmetic instruction found no
	// free ALU port.
	CauseALUBusy
	// CauseAssist: the slot stalled on an assist-warp hazard — the
	// highest-priority candidate was an assist warp (AWS priority rules
	// put fill-path assists ahead of parent warps) that could not issue;
	// the charge lands on the assist's host warp slot.
	CauseAssist
	// CauseEmpty: the SM had no issue candidate at all — no valid warp
	// and no assist entry. Charged to the SM row, not a warp.
	CauseEmpty
	// CauseMemoWait: the blamed warp's next instruction depended on a
	// register owned by an in-flight memoization probe — a scoreboard
	// stall whose latency is the assist-warp replay, not the SFU. Only
	// charged when the memoization use case is on.
	CauseMemoWait
	// CausePrefetchMSHR: the blamed warp was replaying a load whose MSHR
	// overflow happened while prefetch-initiated fills held MSHR entries —
	// CauseMSHRFull re-attributed to prefetch aggressiveness. Only charged
	// when the prefetch use case is on.
	CausePrefetchMSHR
	// NumCauses counts the Cause values; it is not itself a cause.
	NumCauses
)

// causeNames maps Cause values to the short labels used in rendered
// tables and snapshots of the breakdown.
var causeNames = [NumCauses]string{
	"scoreboard", "barrier", "drain", "lsu-busy", "storebuf-full",
	"mshr-full", "sfu-busy", "alu-busy", "assist", "empty",
	"memo-wait", "pf-mshr",
}

// String returns the short lower-case label for the cause, or "cause(N)"
// for out-of-range values.
func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Attr accumulates one SM's per-warp stall attribution: a row of Cause
// counters per warp slot plus one trailing SM-level row for slots with no
// candidate warp (CauseEmpty). Each counter is the number of scheduler
// issue slots charged to that (warp, cause) pair. Attr is written only on
// behalf of its owning SM.
type Attr struct {
	// Counts holds warpSlots+1 rows of NumCauses counters; the last row
	// is the SM-level row addressed by warp index -1.
	Counts [][NumCauses]uint64
}

// NewAttr returns an attribution table for an SM with warpSlots warp
// contexts.
func NewAttr(warpSlots int) *Attr {
	return &Attr{Counts: make([][NumCauses]uint64, warpSlots+1)}
}

// Charge adds n unissued slots to (warp, cause). warp -1 addresses the
// SM-level row.
func (a *Attr) Charge(warp int, c Cause, n uint64) {
	if warp < 0 {
		warp = len(a.Counts) - 1
	}
	a.Counts[warp][c] += n
}

// Sum returns the total slots charged across all warps and causes.
func (a *Attr) Sum() uint64 {
	var t uint64
	for i := range a.Counts {
		for _, n := range a.Counts[i] {
			t += n
		}
	}
	return t
}

// Totals returns the per-cause totals summed over all warp rows.
func (a *Attr) Totals() [NumCauses]uint64 {
	var t [NumCauses]uint64
	for i := range a.Counts {
		for c, n := range a.Counts[i] {
			t[c] += n
		}
	}
	return t
}

// Snap codes the table in a checkpoint. The row count must match the
// decoding table's: the SM geometry is fixed by the config the snapshot
// was sealed against.
func (a *Attr) Snap(c *snapshot.Codec) {
	c.Shape(len(a.Counts), "attr rows")
	for i := range a.Counts {
		c.U64s(a.Counts[i][:])
	}
}

// Attribution is the whole-machine stall-attribution report: one Attr
// per SM, in SM-index order, plus the geometry needed to render it.
type Attribution struct {
	// WarpSlots is the number of warp contexts per SM (each Attr has
	// WarpSlots+1 rows).
	WarpSlots int
	// PerSM holds each SM's table, indexed by SM id.
	PerSM []*Attr
}

// Sum returns the total unissued slots charged machine-wide. The repo's
// invariant test pins this to (cycles × schedulers × SMs − issued
// slots).
func (at *Attribution) Sum() uint64 {
	var t uint64
	for _, a := range at.PerSM {
		t += a.Sum()
	}
	return t
}

// Totals returns machine-wide per-cause totals.
func (at *Attribution) Totals() [NumCauses]uint64 {
	var t [NumCauses]uint64
	for _, a := range at.PerSM {
		s := a.Totals()
		for c := range s {
			t[c] += s[c]
		}
	}
	return t
}

// warpRow pairs a warp's global identity with its total for sorting.
type warpRow struct {
	sm, warp int
	total    uint64
	counts   [NumCauses]uint64
}

// RenderTable writes the human-readable stall-attribution breakdown: a
// machine-wide per-cause summary (share of all unissued slots), a per-SM
// totals table, and the topWarps most-stalled warps with their dominant
// causes. topWarps <= 0 renders the summary tables only.
func (at *Attribution) RenderTable(w io.Writer, topWarps int) {
	total := at.Sum()
	fmt.Fprintf(w, "Stall attribution: %d unissued issue slots charged\n\n", total)
	fmt.Fprintf(w, "  %-14s %14s %7s\n", "cause", "slots", "share")
	tt := at.Totals()
	for c := Cause(0); c < NumCauses; c++ {
		fmt.Fprintf(w, "  %-14s %14d %6.1f%%\n", c, tt[c], share(tt[c], total))
	}
	fmt.Fprintf(w, "\n  %-5s %14s %14s %14s %14s\n", "SM", "total", "scoreboard", "mem-pipe", "barrier+drain")
	for sm, a := range at.PerSM {
		t := a.Totals()
		mem := t[CauseLSUBusy] + t[CauseStoreBufFull] + t[CauseMSHRFull]
		fmt.Fprintf(w, "  %-5d %14d %14d %14d %14d\n",
			sm, a.Sum(), t[CauseScoreboard], mem, t[CauseBarrier]+t[CauseDrain])
	}
	if topWarps <= 0 {
		return
	}
	var rows []warpRow
	for sm, a := range at.PerSM {
		for wi := 0; wi < len(a.Counts)-1; wi++ {
			var rt uint64
			for _, n := range a.Counts[wi] {
				rt += n
			}
			if rt > 0 {
				rows = append(rows, warpRow{sm: sm, warp: wi, total: rt, counts: a.Counts[wi]})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		if rows[i].sm != rows[j].sm {
			return rows[i].sm < rows[j].sm
		}
		return rows[i].warp < rows[j].warp
	})
	if len(rows) > topWarps {
		rows = rows[:topWarps]
	}
	fmt.Fprintf(w, "\n  top %d stalled warps:\n", len(rows))
	fmt.Fprintf(w, "  %-10s %14s  %s\n", "warp", "slots", "dominant causes")
	for _, r := range rows {
		fmt.Fprintf(w, "  sm%d.w%-4d %14d  %s\n", r.sm, r.warp, r.total, dominant(r.counts, r.total))
	}
}

// share returns n as a percentage of total, or 0 for an empty total.
func share(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// dominant formats the top causes of one warp row, largest first,
// stopping once 90% of the row's slots are explained.
func dominant(counts [NumCauses]uint64, total uint64) string {
	type cc struct {
		c Cause
		n uint64
	}
	var cs []cc
	for c := Cause(0); c < NumCauses; c++ {
		if counts[c] > 0 {
			cs = append(cs, cc{c, counts[c]})
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].n != cs[j].n {
			return cs[i].n > cs[j].n
		}
		return cs[i].c < cs[j].c
	})
	out := ""
	var covered uint64
	for i, x := range cs {
		if i > 0 {
			if covered*10 >= total*9 {
				break
			}
			out += " "
		}
		out += fmt.Sprintf("%s=%.0f%%", x.c, share(x.n, total))
		covered += x.n
	}
	return out
}
