package mem

import (
	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
)

// Partition is one memory partition: a bank of the shared L2 plus its
// GDDR5 channel. Lines are interleaved across partitions at line
// granularity.
type Partition struct {
	id    int
	sys   *System
	cache *Cache
	mshr  *MSHR
	ch    *Channel
}

type readWaiter struct {
	sm   int
	user any
}

func newPartition(id int, sys *System) *Partition {
	cfg := sys.Cfg
	var md *MDCache
	if sys.Design.Compressing() {
		md = NewMDCache(cfg)
	}
	return &Partition{
		id:  id,
		sys: sys,
		cache: NewCache(cfg.L2Size/cfg.NumChannels, cfg.L2Assoc, compress.LineSize,
			cfg.NumChannels, sys.Design.L2TagMult),
		mshr: NewMSHR(0),
		ch:   NewChannel(id, cfg, sys.Q, sys.S, md, sys.Inj),
	}
}

// handleRead runs when a read request packet arrives at the partition.
func (p *Partition) handleRead(sm int, lineAddr uint64, user any) {
	p.sys.Q.Push(p.sys.Q.Now()+float64(p.sys.Cfg.L2Latency),
		p.event(evReadL2, sm, lineAddr, user))
}

// fetch issues the DRAM read for a missing line.
func (p *Partition) fetch(lineAddr uint64) {
	bursts := compress.MaxBursts
	if p.sys.Design.Compressing() {
		st := p.sys.Dom.State(lineAddr)
		bursts = st.Bursts()
		p.sys.S.Ratio.Add(st)
	}
	p.ch.Enqueue(lineAddr, false, bursts, event{p: p, ln: lineAddr, kind: evFillDRAM})
}

// fill installs a line arriving from DRAM and wakes its waiters.
func (p *Partition) fill(lineAddr uint64) {
	deliver := event{p: p, ln: lineAddr, kind: evDeliverFill}
	if p.sys.Design.Scope == config.ScopeMemory && p.sys.Design.Decomp == config.DecompHW {
		// Dedicated logic at the MC decompresses before the line enters
		// L2 (HW-BDI-Mem): fixed-latency, off the core.
		d, _ := compress.HWLatency(p.sys.Design.Alg)
		p.sys.Q.Push(p.sys.Q.Now()+float64(d), deliver)
		return
	}
	deliver.Run()
}

// residentSize is the L2 slot size the line occupies: its compressed size
// only in the Figure 13 capacity-compression mode, otherwise a full slot
// (the paper's default bandwidth-only compression, Section 4.2).
func (p *Partition) residentSize(lineAddr uint64) int {
	if p.sys.Design.Scope == config.ScopeL2 && p.sys.Design.L2TagMult > 1 {
		if st := p.sys.Dom.State(lineAddr); st.IsCompressed() {
			return st.Size()
		}
	}
	return compress.LineSize
}

// handleWrite runs when a full-line write packet arrives.
func (p *Partition) handleWrite(lineAddr uint64) {
	p.sys.Q.Push(p.sys.Q.Now()+float64(p.sys.Cfg.L2Latency),
		event{p: p, ln: lineAddr, kind: evWriteL2})
}

// writebacks sends evicted dirty lines to DRAM.
func (p *Partition) writebacks(evs []Evicted) {
	for _, ev := range evs {
		if !ev.Dirty {
			continue
		}
		p.sys.S.L2Evictions++
		issue := event{p: p, ln: ev.LineAddr, kind: evWBIssue}
		if p.sys.Design.Scope == config.ScopeMemory {
			// HW-BDI-Mem compresses at the MC on the way out.
			p.sys.Dom.CompressLine(ev.LineAddr)
			if p.sys.Design.Decomp == config.DecompHW {
				_, c := compress.HWLatency(p.sys.Design.Alg)
				p.sys.Q.Push(p.sys.Q.Now()+float64(c), issue)
				continue
			}
		}
		issue.Run()
	}
}

// respond sends the line back across the interconnect to the SM. This is
// the response-fault injection site: a dropped response never reaches the
// SM (the waiting warp wedges and the simulator's wedge detector turns
// the hang into a structured error); a delayed response is held for the
// configured number of cycles and then delivered normally (a transient
// link fault recovered by retry).
func (p *Partition) respond(sm int, lineAddr uint64, user any) {
	if p.sys.Inj.RespDrop() {
		p.sys.S.FaultsInjected++
		p.sys.S.ResponsesDropped++
		return
	}
	send := p.event(evRespSend, sm, lineAddr, user)
	send.flits = int32(p.sys.respFlits(lineAddr))
	if d, ok := p.sys.Inj.RespDelay(); ok {
		p.sys.S.FaultsInjected++
		p.sys.S.ResponsesDelayed++
		p.sys.Q.Push(p.sys.Q.Now()+float64(d), send)
		return
	}
	send.Run()
}

// handleReadRaw serves a fault-recovery refetch of the uncompressed line.
// It reuses the L2 lookup timing but bypasses the MSHR (no merging with
// compressed waiters) and skips the compression-ratio accounting: the
// recovery transfer is overhead, not part of the campaign's compressed
// traffic.
func (p *Partition) handleReadRaw(sm int, lineAddr uint64, user any) {
	p.sys.Q.Push(p.sys.Q.Now()+float64(p.sys.Cfg.L2Latency),
		p.event(evReadRawL2, sm, lineAddr, user))
}

// respondRaw returns the uncompressed line at full-line flit cost, with no
// fault injection (the recovery channel is protected).
func (p *Partition) respondRaw(sm int, lineAddr uint64, user any) {
	p.sys.X.FromPartition(p.id, p.sys.rawFlits(), p.event(evFill, sm, lineAddr, user))
}
