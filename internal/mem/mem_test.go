package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/stats"
	"github.com/caba-sim/caba/internal/timing"
)

// --- backing store ---

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	data := []byte("hello, memory system")
	m.Write(0x1000, data)
	got := make([]byte, len(data))
	m.Read(0x1000, got)
	if !bytes.Equal(got, data) {
		t.Errorf("round trip: got %q", got)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3)
	data := []byte{1, 2, 3, 4, 5, 6, 7}
	m.Write(addr, data)
	got := make([]byte, len(data))
	m.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Errorf("cross-page: got %v", got)
	}
}

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	buf := []byte{9, 9, 9}
	m.Read(0xdead0000, buf)
	if buf[0] != 0 || buf[1] != 0 || buf[2] != 0 {
		t.Errorf("unwritten memory should read zero: %v", buf)
	}
}

func TestMemoryReadWriteU(t *testing.T) {
	m := NewMemory()
	for _, w := range []uint8{1, 2, 4, 8} {
		v := uint64(0x1122334455667788) & ((1 << (uint(w) * 8)) - 1)
		if w == 8 {
			v = 0x1122334455667788
		}
		m.WriteU(0x2000, v, w)
		if got := m.ReadU(0x2000, w); got != v {
			t.Errorf("width %d: got %#x, want %#x", w, got, v)
		}
	}
}

func TestMemoryQuickU32(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v uint32) bool {
		a := uint64(addr)
		m.WriteU(a, uint64(v), 4)
		return m.ReadU(a, 4) == uint64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- domain ---

func TestDomainStateLifecycle(t *testing.T) {
	m := NewMemory()
	d := NewDomain(m, compress.AlgBDI)
	la := uint64(0x4000)
	if d.State(la).IsCompressed() {
		t.Error("fresh line should be raw")
	}
	if d.Bursts(la) != compress.MaxBursts {
		t.Error("raw line should need max bursts")
	}
	// Zero line compresses to 1 burst.
	c := d.CompressLine(la)
	if !c.IsCompressed() || c.Bursts() != 1 {
		t.Errorf("zero line: %+v", c)
	}
	if d.Bursts(la) != 1 {
		t.Error("domain should remember compression")
	}
	d.SetRaw(la)
	if d.State(la).IsCompressed() {
		t.Error("SetRaw should clear state")
	}
}

func TestDomainPrecompress(t *testing.T) {
	m := NewMemory()
	d := NewDomain(m, compress.AlgBDI)
	// 8 lines of pointer-like data.
	for i := 0; i < 8*compress.LineSize/8; i++ {
		m.WriteU(uint64(i*8), 0x70000000+uint64(i), 8)
	}
	ratio := d.Precompress(0, 8*compress.LineSize)
	if ratio <= 1.5 {
		t.Errorf("pointer data ratio = %v, want > 1.5", ratio)
	}
	if d.CompressedLineCount() != 8 {
		t.Errorf("compressed lines = %d, want 8", d.CompressedLineCount())
	}
}

func TestDomainCompressionMatchesBacking(t *testing.T) {
	m := NewMemory()
	d := NewDomain(m, compress.AlgBDI)
	line := make([]byte, compress.LineSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], 0xabc000+uint64(i*4))
	}
	m.Write(0x8000, line)
	c := d.CompressLine(0x8000)
	if !c.IsCompressed() {
		t.Fatal("should compress")
	}
	out := make([]byte, compress.LineSize)
	if err := compress.Decompress(c, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, line) {
		t.Error("domain payload does not decompress to backing bytes")
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x12345) != 0x12345&^uint64(compress.LineSize-1) {
		t.Error("LineAddr mask wrong")
	}
	if LineAddr(128) != 128 || LineAddr(129) != 128 || LineAddr(255) != 128 {
		t.Error("LineAddr boundaries wrong")
	}
}

// --- cache ---

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1024, 2, 128, 1, 1) // 4 sets x 2 ways
	if c.Lookup(0, false) {
		t.Error("empty cache should miss")
	}
	c.Insert(0, 128, false)
	if !c.Lookup(0, false) {
		t.Error("inserted line should hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("counters = %d/%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1024, 2, 128, 1, 1) // 4 sets x 2 ways
	// Three lines in the same set (stride = numSets*lineSize = 512).
	c.Insert(0, 128, false)
	c.Insert(512, 128, false)
	c.Lookup(0, false) // refresh 0
	evs := c.Insert(1024, 128, false)
	if len(evs) != 1 || evs[0].LineAddr != 512 {
		t.Errorf("evicted %+v, want line 512 (LRU)", evs)
	}
	if !c.Contains(0) || !c.Contains(1024) || c.Contains(512) {
		t.Error("wrong resident set after eviction")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := NewCache(256, 2, 128, 1, 1) // 1 set x 2 ways
	c.Insert(0, 128, true)
	c.Insert(128, 128, false)
	evs := c.Insert(256, 128, false)
	if len(evs) != 1 || !evs[0].Dirty || evs[0].LineAddr != 0 {
		t.Errorf("dirty eviction wrong: %+v", evs)
	}
}

func TestCacheWriteMarksDirty(t *testing.T) {
	c := NewCache(256, 2, 128, 1, 1)
	c.Insert(0, 128, false)
	c.Lookup(0, true) // store hit
	ev, ok := c.Invalidate(0)
	if !ok || !ev.Dirty {
		t.Error("store hit should mark line dirty")
	}
}

func TestCacheCompressedCapacityMode(t *testing.T) {
	// 1 set, 2 ways, 4x tags: up to 8 tags but only 256B of data.
	c := NewCache(256, 2, 128, 1, 4)
	// Insert 8 lines of 32B each: all fit (8 x 32 = 256 <= 256).
	for i := 0; i < 8; i++ {
		if evs := c.Insert(uint64(i*128), 32, false); len(evs) != 0 {
			t.Fatalf("line %d evicted %+v; all should fit", i, evs)
		}
	}
	if c.ResidentLines() != 8 {
		t.Errorf("resident = %d, want 8 (capacity benefit)", c.ResidentLines())
	}
	// A 9th line: tags exhausted -> evict one.
	evs := c.Insert(uint64(8*128), 32, false)
	if len(evs) != 1 {
		t.Errorf("9th line should evict exactly one, got %d", len(evs))
	}
}

func TestCacheCapacityModeEvictsBySize(t *testing.T) {
	c := NewCache(256, 2, 128, 1, 4)
	c.Insert(0, 32, false)
	c.Insert(128, 32, false)
	// A full-size line (128B) forces usage 32+32+128 = 192 <= 256: fits.
	if evs := c.Insert(256, 128, false); len(evs) != 0 {
		t.Fatalf("should fit: %+v", evs)
	}
	// Another full-size line: 192+128 = 320 > 256: evicts LRU lines.
	evs := c.Insert(384, 128, false)
	if len(evs) == 0 {
		t.Fatal("overflow must evict")
	}
}

func TestCacheBaselineNoCapacityBenefit(t *testing.T) {
	// tagMult=1: even 32B lines occupy a tag each; 2 ways = 2 lines max.
	c := NewCache(256, 2, 128, 1, 1)
	c.Insert(0, 32, false)
	c.Insert(128, 32, false)
	evs := c.Insert(256, 32, false)
	if len(evs) != 1 {
		t.Errorf("baseline cache must evict on 3rd line in a 2-way set, got %d evictions", len(evs))
	}
}

func TestCacheIndexDivisor(t *testing.T) {
	// Simulates an L2 partition: lines strided by 4 channels. With div=4
	// consecutive local lines map to consecutive sets.
	c := NewCache(1024, 2, 128, 4, 1)     // 4 sets
	addrs := []uint64{0, 512, 1024, 1536} // channel-0 lines: local lines 0,1,2,3
	for _, a := range addrs {
		c.Insert(a, 128, false)
	}
	if c.ResidentLines() != 4 {
		t.Errorf("resident = %d, want 4 (each local line its own set)", c.ResidentLines())
	}
}

func TestCacheUpdateResidentSize(t *testing.T) {
	c := NewCache(256, 2, 128, 1, 4)
	c.Insert(0, 32, false)
	c.Insert(0, 128, true) // same line, recompressed larger + dirty
	if got := c.LineSizeOf(0); got != 128 {
		t.Errorf("size = %d, want 128", got)
	}
	ev, _ := c.Invalidate(0)
	if !ev.Dirty {
		t.Error("reinsertion should keep dirty bit")
	}
}

// --- MSHR ---

func TestMSHRMergeAndComplete(t *testing.T) {
	m := NewMSHR(2)
	p1, ok1 := m.Add(128, "a")
	p2, ok2 := m.Add(128, "b")
	if !p1 || !ok1 || p2 || !ok2 {
		t.Errorf("primary/secondary wrong: %v %v %v %v", p1, ok1, p2, ok2)
	}
	m.Add(256, "c")
	if !m.Full() {
		t.Error("2 entries should fill a 2-entry MSHR")
	}
	if _, ok := m.Add(384, "d"); ok {
		t.Error("full MSHR must reject new lines")
	}
	if _, ok := m.Add(128, "e"); !ok {
		t.Error("full MSHR must still merge existing lines")
	}
	w := m.Complete(128)
	if len(w) != 3 || w[0] != "a" || w[2] != "e" {
		t.Errorf("waiters = %v", w)
	}
	if m.Pending(128) {
		t.Error("completed entry should be gone")
	}
}

func TestMSHRUnbounded(t *testing.T) {
	m := NewMSHR(0)
	for i := 0; i < 1000; i++ {
		if _, ok := m.Add(uint64(i*128), i); !ok {
			t.Fatal("unbounded MSHR rejected an entry")
		}
	}
	if m.Full() {
		t.Error("unbounded MSHR is never full")
	}
}

// --- xbar ---

// fn is a test-local action that runs a function.
type fn func()

func (f fn) Run() { f() }

func TestXbarSerializesPortFlits(t *testing.T) {
	var q timing.Queue
	var s stats.Sim
	x := NewXbar(&q, &s, 2, 8)
	var arrivals []float64
	for i := 0; i < 3; i++ {
		x.ToPartition(0, 4, fn(func() { arrivals = append(arrivals, q.Now()) }))
	}
	x.ToPartition(1, 4, fn(func() { arrivals = append(arrivals, q.Now()) }))
	q.RunUntil(1000)
	// Port 0: packets finish at 4, 8, 12 (+8 latency) = 12, 16, 20.
	// Port 1: independent, 4+8 = 12.
	if len(arrivals) != 4 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 12 || arrivals[1] != 12 || arrivals[2] != 16 || arrivals[3] != 20 {
		t.Errorf("arrivals = %v, want [12 12 16 20]", arrivals)
	}
	if s.FlitsToMem != 16 {
		t.Errorf("flits = %d, want 16", s.FlitsToMem)
	}
}

func TestXbarDirectionsIndependent(t *testing.T) {
	var q timing.Queue
	var s stats.Sim
	x := NewXbar(&q, &s, 1, 0)
	var order []string
	x.ToPartition(0, 10, fn(func() { order = append(order, "req") }))
	x.FromPartition(0, 1, fn(func() { order = append(order, "resp") }))
	q.RunUntil(100)
	if len(order) != 2 || order[0] != "resp" {
		t.Errorf("order = %v; directions must not contend", order)
	}
}

// --- DRAM channel ---

func testChannel(md bool) (*Channel, *timing.Queue, *stats.Sim) {
	cfg := config.Baseline()
	q := &timing.Queue{}
	s := &stats.Sim{}
	var mdc *MDCache
	if md {
		mdc = NewMDCache(&cfg)
	}
	// Note: cfg escapes; take a stable copy.
	c := cfg
	return NewChannel(0, &c, q, s, mdc, nil), q, s
}

func TestChannelBurstAccounting(t *testing.T) {
	ch, q, s := testChannel(false)
	done := 0
	ch.Enqueue(0, false, 4, fn(func() { done++ }))
	ch.Enqueue(128*6, false, 1, fn(func() { done++ })) // same channel, next local line
	q.RunUntil(10000)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if s.DRAMBursts != 5 || s.DRAMBusyCycles != 5 {
		t.Errorf("bursts = %d busy = %d, want 5/5", s.DRAMBursts, s.DRAMBusyCycles)
	}
	if s.DRAMReads != 2 {
		t.Errorf("reads = %d", s.DRAMReads)
	}
}

func TestChannelRowHitFaster(t *testing.T) {
	ch, q, _ := testChannel(false)
	var t2, t3 float64
	ch.Enqueue(0, false, 4, nil)
	q.RunUntil(100000)
	// Same row: only CAS latency.
	ch.Enqueue(128*6, false, 4, fn(func() { t2 = q.Now() }))
	q.RunUntil(200000)
	// Far line, same bank, different row: precharge + activate.
	far := uint64(128) * 6 * ch.linesPerRow * uint64(len(ch.banks)) * 3
	ch.Enqueue(far, false, 4, fn(func() { t3 = q.Now() }))
	q.RunUntil(300000)
	hitLat := t2 - 100000
	missLat := t3 - 200000
	if hitLat <= 0 || missLat <= hitLat {
		t.Errorf("row hit %v should be faster than row miss %v", hitLat, missLat)
	}
}

func TestChannelFRFCFSPrefersRowHits(t *testing.T) {
	ch, q, _ := testChannel(false)
	var order []uint64
	// Occupy the channel, then queue a row-conflict and a row-hit request.
	ch.Enqueue(0, false, 4, fn(func() { order = append(order, 0) }))
	conflict := uint64(128) * 6 * ch.linesPerRow * uint64(len(ch.banks)) * 5
	ch.Enqueue(conflict, false, 4, fn(func() { order = append(order, 1) }))
	ch.Enqueue(128*6, false, 4, fn(func() { order = append(order, 2) })) // row hit with req 0
	q.RunUntil(100000)
	if len(order) != 3 || order[1] != 2 {
		t.Errorf("service order = %v; FR-FCFS should serve the row hit (2) before the conflict (1)", order)
	}
}

func TestChannelMDCacheMissCostsExtraBurst(t *testing.T) {
	ch, q, s := testChannel(true)
	ch.Enqueue(0, false, 1, nil) // first touch: MD miss
	q.RunUntil(10000)
	if s.MDMisses != 1 || s.DRAMBursts != 2 {
		t.Errorf("md misses = %d bursts = %d, want 1/2", s.MDMisses, s.DRAMBursts)
	}
	ch.Enqueue(128*6, false, 1, nil) // neighbor line: MD hit
	q.RunUntil(20000)
	if s.MDHits != 1 || s.DRAMBursts != 3 {
		t.Errorf("md hits = %d bursts = %d, want 1/3", s.MDHits, s.DRAMBursts)
	}
}

func TestMDCacheSpatialLocality(t *testing.T) {
	cfg := config.Baseline()
	md := NewMDCache(&cfg)
	// Stream 4096 consecutive lines: 1 miss per MDLinesPerEntry lines.
	for i := 0; i < 4096; i++ {
		md.Access(uint64(i*cfg.LineSize), cfg.LineSize)
	}
	wantMisses := uint64(4096 / cfg.MDLinesPerEntry)
	if md.Misses != wantMisses {
		t.Errorf("misses = %d, want %d", md.Misses, wantMisses)
	}
	hitRate := float64(md.Hits) / float64(md.Hits+md.Misses)
	if hitRate < 0.99 {
		t.Errorf("streaming MD hit rate = %v, want > 99%% (Section 4.3.2)", hitRate)
	}
}

// --- full system ---

func testSystem(design config.Design) (*System, *timing.Queue, *stats.Sim, *Domain) {
	cfg := config.TestConfig()
	c := cfg
	q := &timing.Queue{}
	s := &stats.Sim{}
	dom := NewDomain(NewMemory(), design.Alg)
	sys := NewSystem(&c, design, q, s, dom)
	return sys, q, s, dom
}

func TestSystemReadFillFlow(t *testing.T) {
	sys, q, s, _ := testSystem(config.DesignBase)
	fills := 0
	sys.OnFill = func(sm int, lineAddr uint64, user any) {
		fills++
		if sm != 3 || lineAddr != 256 || user != "tag" {
			t.Errorf("fill = sm%d %#x %v", sm, lineAddr, user)
		}
	}
	sys.ReadLine(3, 256, "tag")
	q.RunUntil(100000)
	if fills != 1 {
		t.Fatalf("fills = %d", fills)
	}
	if s.L2Misses != 1 || s.DRAMReads != 1 || s.DRAMBursts != 4 {
		t.Errorf("miss=%d reads=%d bursts=%d", s.L2Misses, s.DRAMReads, s.DRAMBursts)
	}
	// Second read: L2 hit, no DRAM.
	sys.ReadLine(3, 256, "tag")
	q.RunUntil(200000)
	if s.L2Hits != 1 || s.DRAMReads != 1 {
		t.Errorf("hit=%d reads=%d after re-read", s.L2Hits, s.DRAMReads)
	}
}

func TestSystemCompressedReadUsesFewerBursts(t *testing.T) {
	sys, q, s, dom := testSystem(config.DesignCABABDI)
	dom.Precompress(0, compress.LineSize) // zero line -> 1 burst
	sys.OnFill = func(int, uint64, any) {}
	sys.ReadLine(0, 0, nil)
	q.RunUntil(100000)
	// 1 data burst + 1 metadata burst (first touch misses the MD cache).
	if s.DRAMBursts != 2 {
		t.Errorf("bursts = %d, want 2 (1 data + 1 MD-miss) for a zero line", s.DRAMBursts)
	}
	if got := sys.ArrivesCompressed(0); !got.IsCompressed() {
		t.Error("ScopeL2 line should arrive compressed at the SM")
	}
}

func TestSystemHWBDIMemDecompressesAtMC(t *testing.T) {
	sys, q, s, dom := testSystem(config.DesignHWBDIMem)
	dom.Precompress(0, compress.LineSize)
	sys.OnFill = func(int, uint64, any) {}
	sys.ReadLine(0, 0, nil)
	q.RunUntil(100000)
	if s.DRAMBursts != 2 { // 1 data + 1 MD-miss
		t.Errorf("DRAM bursts = %d, want 2 (compressed in memory + MD miss)", s.DRAMBursts)
	}
	if sys.ArrivesCompressed(0).IsCompressed() {
		t.Error("HW-BDI-Mem lines must arrive raw at the SM")
	}
	// Interconnect response: full line = 1 + LineSize/FlitSize flits.
	wantResp := uint64(1 + compress.LineSize/sys.Cfg.FlitSize)
	if s.FlitsFromMem != wantResp {
		t.Errorf("response flits = %d, want %d (no interconnect compression)", s.FlitsFromMem, wantResp)
	}
}

func TestSystemScopeL2SavesInterconnect(t *testing.T) {
	sys, q, s, dom := testSystem(config.DesignHWBDI)
	dom.Precompress(0, compress.LineSize)
	sys.OnFill = func(int, uint64, any) {}
	sys.ReadLine(0, 0, nil)
	q.RunUntil(100000)
	if s.FlitsFromMem != 2 { // header + 1 compressed flit
		t.Errorf("response flits = %d, want 2 (interconnect compression)", s.FlitsFromMem)
	}
}

func TestSystemWriteDirtyEvictionWritesBack(t *testing.T) {
	sys, q, s, _ := testSystem(config.DesignBase)
	sys.OnFill = func(int, uint64, any) {}
	// Fill one L2 partition set beyond capacity with dirty lines.
	// Partition 0 lines: stride = NumChannels * LineSize.
	stride := uint64(sys.Cfg.NumChannels * sys.Cfg.LineSize)
	setStride := stride * uint64(sys.parts[0].cache.numSets)
	for i := 0; i < sys.Cfg.L2Assoc+2; i++ {
		sys.WriteLine(0, uint64(i)*setStride)
		q.RunUntil(q.Now() + 10000)
	}
	q.RunUntil(q.Now() + 100000)
	if s.DRAMWrites < 2 {
		t.Errorf("DRAM writes = %d, want >= 2 dirty writebacks", s.DRAMWrites)
	}
}

func TestSystemMSHRMergesSameLine(t *testing.T) {
	sys, q, s, _ := testSystem(config.DesignBase)
	fills := 0
	sys.OnFill = func(int, uint64, any) { fills++ }
	sys.ReadLine(0, 512, nil)
	sys.ReadLine(1, 512, nil)
	q.RunUntil(100000)
	if fills != 2 {
		t.Errorf("fills = %d, want 2 (both waiters woken)", fills)
	}
	if s.DRAMReads != 1 {
		t.Errorf("DRAM reads = %d, want 1 (merged)", s.DRAMReads)
	}
}

func TestSystemRatioAccumulates(t *testing.T) {
	sys, q, s, dom := testSystem(config.DesignCABABDI)
	dom.Precompress(0, 4*compress.LineSize)
	sys.OnFill = func(int, uint64, any) {}
	for i := 0; i < 4; i++ {
		sys.ReadLine(0, uint64(i*compress.LineSize), nil)
	}
	q.RunUntil(100000)
	if s.Ratio.Lines != 4 {
		t.Errorf("ratio lines = %d, want 4", s.Ratio.Lines)
	}
	if s.Ratio.Value() != 4.0 {
		t.Errorf("ratio = %v, want 4.0 for zero lines", s.Ratio.Value())
	}
}

func TestSystemDrained(t *testing.T) {
	sys, q, _, _ := testSystem(config.DesignBase)
	done := false
	sys.OnFill = func(int, uint64, any) { done = true }
	if !sys.Drained() {
		t.Error("fresh system should be drained")
	}
	sys.ReadLine(0, 0, nil)
	if sys.Drained() {
		t.Error("in-flight read: not drained")
	}
	q.RunUntil(100000)
	if !done || !sys.Drained() {
		t.Error("after completion system should be drained")
	}
}

func TestSystemPartitionInterleaving(t *testing.T) {
	sys, _, _, _ := testSystem(config.DesignBase)
	seen := map[int]bool{}
	for i := 0; i < sys.Cfg.NumChannels*3; i++ {
		seen[sys.PartitionOf(uint64(i*sys.Cfg.LineSize))] = true
	}
	if len(seen) != sys.Cfg.NumChannels {
		t.Errorf("interleaving covers %d partitions, want %d", len(seen), sys.Cfg.NumChannels)
	}
}

func TestSystemBandwidthScaling(t *testing.T) {
	// Same traffic at 0.5x and 2x bandwidth: completion time should
	// shrink as bandwidth grows.
	elapsed := func(bw float64) float64 {
		cfg := config.TestConfig()
		cfg.BWScale = bw
		q := &timing.Queue{}
		s := &stats.Sim{}
		dom := NewDomain(NewMemory(), compress.AlgNone)
		sys := NewSystem(&cfg, config.DesignBase, q, s, dom)
		var last float64
		sys.OnFill = func(int, uint64, any) { last = q.Now() }
		for i := 0; i < 64; i++ {
			sys.ReadLine(0, uint64(i*cfg.LineSize), nil)
		}
		q.RunUntil(1e7)
		return last
	}
	slow, fast := elapsed(0.5), elapsed(2.0)
	if fast >= slow {
		t.Errorf("2x BW (%v) should finish before 0.5x BW (%v)", fast, slow)
	}
}

// Property: random mixes of reads/writes always drain and every read
// fills exactly once.
func TestSystemQuickAlwaysDrains(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys, q, _, dom := testSystem(config.DesignCABABDI)
		dom.Precompress(0, 64*compress.LineSize)
		fills := 0
		sys.OnFill = func(int, uint64, any) { fills++ }
		reads := 0
		for i := 0; i < 100; i++ {
			la := uint64(rng.Intn(64) * compress.LineSize)
			if rng.Intn(2) == 0 {
				sys.ReadLine(rng.Intn(2), la, nil)
				reads++
			} else {
				sys.WriteLine(rng.Intn(2), la)
			}
		}
		q.RunUntil(1e8)
		return fills == reads && sys.Drained()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
