package mem

import "fmt"

// Cache is a set-associative, LRU, write-back cache model. It tracks tags
// and line metadata only — data lives in the backing Memory.
//
// With tagMult == 1 it is a conventional cache. With tagMult > 1 it models
// the compressed-capacity caches of Figure 13: each set has assoc*tagMult
// tags but only assoc*lineSize bytes of data storage, and each resident
// line occupies its (compressed) size, so more lines fit when they
// compress well.
type Cache struct {
	sets     [][]cacheLine
	numSets  int
	lineSize int
	setBytes int // data capacity per set
	indexDiv int // line-number divisor applied before set indexing
	tick     uint64
}

type cacheLine struct {
	lineAddr uint64
	valid    bool
	dirty    bool
	size     int
	lru      uint64
}

// Evicted describes a line pushed out by an insertion.
type Evicted struct {
	LineAddr uint64
	Dirty    bool
	Size     int
}

// NewCache builds a cache of totalSize bytes, assoc ways, lineSize-byte
// lines. indexDiv divides the line number before set indexing (used by L2
// partitions, whose lines are strided across channels). tagMult multiplies
// the tag count for compressed-capacity mode.
func NewCache(totalSize, assoc, lineSize, indexDiv, tagMult int) *Cache {
	if indexDiv < 1 {
		indexDiv = 1
	}
	if tagMult < 1 {
		tagMult = 1
	}
	numSets := totalSize / (assoc * lineSize)
	if numSets < 1 {
		panic(fmt.Sprintf("mem: cache too small: %d bytes / %d-way", totalSize, assoc))
	}
	c := &Cache{
		numSets:  numSets,
		lineSize: lineSize,
		setBytes: assoc * lineSize,
		indexDiv: indexDiv,
		sets:     make([][]cacheLine, numSets),
	}
	for i := range c.sets {
		c.sets[i] = make([]cacheLine, assoc*tagMult)
	}
	return c
}

func (c *Cache) setOf(lineAddr uint64) []cacheLine {
	ln := lineAddr / uint64(c.lineSize) / uint64(c.indexDiv)
	return c.sets[ln%uint64(c.numSets)]
}

// Lookup probes for lineAddr; on hit it refreshes LRU state and, when
// write is set, marks the line dirty.
func (c *Cache) Lookup(lineAddr uint64, write bool) bool {
	set := c.setOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].lineAddr == lineAddr {
			c.tick++
			set[i].lru = c.tick
			if write {
				set[i].dirty = true
			}
			return true
		}
	}
	return false
}

// Contains probes without touching LRU state.
func (c *Cache) Contains(lineAddr uint64) bool {
	set := c.setOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].lineAddr == lineAddr {
			return true
		}
	}
	return false
}

// LineSizeOf returns the resident size of the line, or 0 if absent.
func (c *Cache) LineSizeOf(lineAddr uint64) int {
	set := c.setOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].lineAddr == lineAddr {
			return set[i].size
		}
	}
	return 0
}

// Insert places lineAddr with the given resident size (<= lineSize),
// evicting LRU lines until both a tag and enough data capacity are free.
// It returns the evicted lines (dirty ones must be written back by the
// caller). Inserting a line that is already resident just updates its size
// and dirty bit.
func (c *Cache) Insert(lineAddr uint64, size int, dirty bool) []Evicted {
	if size <= 0 || size > c.lineSize {
		size = c.lineSize
	}
	set := c.setOf(lineAddr)
	c.tick++
	// Already resident: update in place (size change may overflow the set;
	// evict others if needed).
	for i := range set {
		if set[i].valid && set[i].lineAddr == lineAddr {
			set[i].size = size
			set[i].dirty = set[i].dirty || dirty
			set[i].lru = c.tick
			return c.makeRoom(set, lineAddr)
		}
	}
	var evicted []Evicted
	// Find a free tag, evicting LRU if all tags are taken.
	slot := -1
	for i := range set {
		if !set[i].valid {
			slot = i
			break
		}
	}
	if slot == -1 {
		slot = c.lruVictim(set, lineAddr)
		evicted = append(evicted, c.evict(set, slot))
	}
	set[slot] = cacheLine{lineAddr: lineAddr, valid: true, dirty: dirty, size: size, lru: c.tick}
	return append(evicted, c.makeRoom(set, lineAddr)...)
}

// makeRoom evicts LRU lines (never `keep`) until the set's resident bytes
// fit its data capacity.
func (c *Cache) makeRoom(set []cacheLine, keep uint64) []Evicted {
	var evicted []Evicted
	for c.setUsage(set) > c.setBytes {
		v := c.lruVictim(set, keep)
		if v < 0 {
			break // only `keep` remains; a single line always fits
		}
		evicted = append(evicted, c.evict(set, v))
	}
	return evicted
}

func (c *Cache) setUsage(set []cacheLine) int {
	total := 0
	for i := range set {
		if set[i].valid {
			total += set[i].size
		}
	}
	return total
}

func (c *Cache) lruVictim(set []cacheLine, keep uint64) int {
	best, bestLRU := -1, ^uint64(0)
	for i := range set {
		if set[i].valid && set[i].lineAddr != keep && set[i].lru < bestLRU {
			best, bestLRU = i, set[i].lru
		}
	}
	return best
}

func (c *Cache) evict(set []cacheLine, i int) Evicted {
	e := Evicted{LineAddr: set[i].lineAddr, Dirty: set[i].dirty, Size: set[i].size}
	set[i].valid = false
	return e
}

// Invalidate drops the line if present, returning its state.
func (c *Cache) Invalidate(lineAddr uint64) (Evicted, bool) {
	set := c.setOf(lineAddr)
	for i := range set {
		if set[i].valid && set[i].lineAddr == lineAddr {
			return c.evict(set, i), true
		}
	}
	return Evicted{}, false
}

// ResidentLines counts valid lines (tests/debugging).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}
