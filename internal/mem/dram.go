package mem

import (
	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/faults"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/stats"
	"github.com/caba-sim/caba/internal/timing"
)

// MDCache is the compression-metadata cache near each memory controller
// (Section 4.3.2): without it, every DRAM access would need a second access
// to fetch the per-line burst-count metadata. One MD line covers the
// metadata of MDLinesPerEntry consecutive data lines, so spatially local
// workloads hit nearly always.
type MDCache struct {
	c *Cache
	// linesPerEntry is how many data lines one MD entry covers.
	linesPerEntry uint64
}

// NewMDCache builds the per-channel MD cache from the configuration. The
// configured capacity is split evenly across channels.
func NewMDCache(cfg *config.Config) *MDCache {
	size := cfg.MDCacheSize / cfg.NumChannels
	if size < cfg.MDCacheAssoc*32 {
		size = cfg.MDCacheAssoc * 32
	}
	return &MDCache{
		c:             NewCache(size, cfg.MDCacheAssoc, 32, 1, 1),
		linesPerEntry: uint64(cfg.MDLinesPerEntry),
	}
}

// Access probes the MD cache for the metadata covering lineAddr, inserting
// it on miss. It reports whether the access hit.
func (m *MDCache) Access(lineAddr uint64) bool {
	key := lineAddr / compress.LineSize / m.linesPerEntry * 32
	if m.c.Lookup(key, false) {
		return true
	}
	m.c.Insert(key, 32, false)
	return false
}

// dramReq is one line-granularity DRAM access.
type dramReq struct {
	lineAddr uint64
	write    bool
	bursts   int
	arrival  float64
	mdMiss   bool
	done     timing.Action
}

// Channel models one GDDR5 memory controller + device: banked timing with
// open rows, FR-FCFS scheduling (row hits first, then oldest), and a data
// bus that moves one 32B burst per memory cycle. Bandwidth utilization is
// bursts transferred over memory cycles elapsed, exactly the paper's
// metric.
type Channel struct {
	id  int
	cfg *config.Config
	q   *timing.Queue
	s   *stats.Sim
	md  *MDCache         // nil when the design stores DRAM data raw
	inj *faults.Injector // nil when fault injection is disabled
	tr  *obs.TraceShard  // nil when tracing is disabled; tid = channel id

	coresPerMem    float64 // core cycles per memory cycle (bandwidth-scaled)
	coresPerMemLat float64 // core cycles per memory cycle for latency terms
	busNextFree    float64 // core-cycle time the data bus frees up
	banks          []bank
	queue          []*dramReq
	busy           bool

	linesPerRow uint64
}

type bank struct {
	openRow   int64 // -1 = closed
	nextReady float64
}

// NewChannel builds memory channel id.
func NewChannel(id int, cfg *config.Config, q *timing.Queue, s *stats.Sim, md *MDCache, inj *faults.Injector) *Channel {
	ch := &Channel{
		id:  id,
		cfg: cfg,
		q:   q,
		s:   s,
		md:  md,
		inj: inj,
		// BWScale stretches/shrinks only the data-bus occupancy per burst
		// (narrower/wider bus), leaving array timings unchanged — the
		// paper's sensitivity study varies peak bandwidth, not latency.
		coresPerMem:    float64(cfg.CoreClockMHz) / (float64(cfg.MemClockMHz) * cfg.BWScale),
		coresPerMemLat: float64(cfg.CoreClockMHz) / float64(cfg.MemClockMHz),
		banks:          make([]bank, cfg.BanksPerChannel),
		linesPerRow:    2048 / compress.LineSize, // 2KB rows
	}
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	return ch
}

// bankAndRow maps a line address to this channel's bank and row.
func (ch *Channel) bankAndRow(lineAddr uint64) (int, int64) {
	local := lineAddr / compress.LineSize / uint64(ch.cfg.NumChannels)
	colGroup := local / ch.linesPerRow
	b := int(colGroup % uint64(len(ch.banks)))
	row := int64(colGroup / uint64(len(ch.banks)))
	return b, row
}

// Enqueue adds a request; done runs when its last burst leaves the bus
// (plus the CAS latency). Pass timing.Nop for fire-and-forget writes: the
// completion event is scheduled either way, keeping the event sequence —
// and hence the golden statistics — independent of who waits.
func (ch *Channel) Enqueue(lineAddr uint64, write bool, bursts int, done timing.Action) {
	if done == nil {
		done = timing.Nop{}
	}
	r := &dramReq{
		lineAddr: lineAddr,
		write:    write,
		bursts:   bursts,
		arrival:  ch.q.Now(),
		done:     done,
	}
	if ch.md != nil {
		// A MD-cache miss costs one extra metadata burst from the
		// metadata region (Section 4.3.2: 8MB reserved in DRAM).
		r.mdMiss = !ch.md.Access(lineAddr)
		if r.mdMiss {
			ch.s.MDMisses++
		} else {
			ch.s.MDHits++
		}
		if !r.mdMiss && ch.inj.MDCorrupt() {
			// MD-corruption injection site: the cached metadata entry is
			// bad. The MD cache's ECC detects it, and the channel recovers
			// by refetching the metadata from the DRAM region — the same
			// extra burst a miss costs — so a wrong burst count never
			// reaches the scheduler.
			r.mdMiss = true
			ch.s.FaultsInjected++
			ch.s.FaultsDetected++
			ch.s.FaultsRecovered++
		}
	}
	ch.queue = append(ch.queue, r)
	if !ch.busy {
		ch.serveNext()
	}
}

// serveNext picks the next request FR-FCFS style and schedules its
// completion. Bank preparation (precharge/activate) is assumed to have
// proceeded in the background since arrival, so a deep queue keeps the
// data bus saturated.
func (ch *Channel) serveNext() {
	if len(ch.queue) == 0 {
		ch.busy = false
		return
	}
	ch.busy = true
	now := ch.q.Now()

	// FR-FCFS: first row hit whose bank is ready; otherwise the oldest.
	pick := 0
	for i, r := range ch.queue {
		b, row := ch.bankAndRow(r.lineAddr)
		if ch.banks[b].openRow == row && ch.banks[b].nextReady <= now {
			pick = i
			break
		}
	}
	r := ch.queue[pick]
	ch.queue = append(ch.queue[:pick], ch.queue[pick+1:]...)

	t := &ch.cfg.Timing
	bi, row := ch.bankAndRow(r.lineAddr)
	bk := &ch.banks[bi]

	// Bank occupancy in core cycles. Preparation counts from arrival (the
	// activate proceeds in the background while earlier transfers use the
	// bus). Row hits pipeline at the column-to-column delay; the CAS
	// latency itself is pure latency, charged on the response below, not
	// occupancy.
	prepStart := r.arrival
	if bk.nextReady > prepStart {
		prepStart = bk.nextReady
	}
	var prepMem int
	if bk.openRow != row {
		prepMem = t.TRP + t.TRCD // precharge + activate
		ch.s.DRAMActivates++
		bk.openRow = row
	} else {
		prepMem = t.TCCD
	}
	bursts := r.bursts
	if r.mdMiss {
		// Metadata fetch: one extra burst. Its latency overlaps the data
		// access (the paper notes MD misses coincide with TLB misses, so
		// the lookup is not serialized on the critical path).
		bursts++
	}
	ready := prepStart + float64(prepMem)*ch.coresPerMemLat

	start := ch.busNextFree
	if now > start {
		start = now
	}
	if ready > start {
		start = ready
	}
	end := start + float64(bursts)*ch.coresPerMem
	ch.busNextFree = end
	bk.nextReady = end
	if r.write {
		bk.nextReady = end + float64(t.TWR)*ch.coresPerMemLat
		ch.s.DRAMWrites++
	} else {
		ch.s.DRAMReads++
	}
	ch.s.DRAMBursts += uint64(bursts)
	ch.s.DRAMBusyCycles += uint64(bursts) // in memory cycles: 1 burst = 1 cycle
	if ch.tr != nil {
		// One data-bus occupancy span per request (timestamps in core
		// cycles; start never regresses — it is clamped to busNextFree).
		name := "read"
		if r.write {
			name = "write"
		}
		ch.tr.Complete(uint64(start), uint64(end)-uint64(start), ch.id, name, "dram")
	}

	// The requester sees the CAS latency on top of the data transfer.
	respond := end + float64(t.TCL)*ch.coresPerMemLat
	ch.q.Push(respond, r.done)
	// The bus frees at `end`: pick the next request then (or now if the
	// queue builds earlier — Enqueue restarts an idle channel). The
	// channel queues itself (Run), so no record is allocated.
	ch.q.Push(end, ch)
}

// QueueDepth returns the number of waiting requests (excluding the one in
// service).
func (ch *Channel) QueueDepth() int { return len(ch.queue) }
