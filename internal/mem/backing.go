// Package mem implements the GPU memory hierarchy: the functional backing
// store, set-associative caches (with the optional compressed-capacity mode
// of Figure 13), per-SM MSHRs, the crossbar interconnect, the GDDR5 memory
// controllers with FR-FCFS scheduling and burst-level data-bus accounting,
// and the compression metadata (MD) cache of Section 4.3.2.
//
// The functional truth of every byte lives in Memory, always uncompressed.
// Compression state (which lines are compressed, with which algorithm and
// encoding, and the exact compressed payload) is tracked per line by
// Domain; the payload is what assist warps walk during decompression and
// the size is what the bandwidth model charges.
package mem

import "encoding/binary"

const pageBits = 16
const pageSize = 1 << pageBits

// Memory is a sparse flat 64-bit address space.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) (*[pageSize]byte, int) {
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p, int(addr & (pageSize - 1))
}

// Read copies len(buf) bytes starting at addr into buf. Unwritten memory
// reads as zero.
func (m *Memory) Read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		p, off := m.page(addr, false)
		n := pageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		if p == nil {
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		} else {
			copy(buf[:n], p[off:off+n])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
}

// Write copies buf into memory starting at addr.
func (m *Memory) Write(addr uint64, buf []byte) {
	for len(buf) > 0 {
		p, off := m.page(addr, true)
		n := pageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		copy(p[off:off+n], buf[:n])
		buf = buf[n:]
		addr += uint64(n)
	}
}

// ReadU reads a little-endian unsigned value of width bytes (1, 2, 4, 8).
func (m *Memory) ReadU(addr uint64, width uint8) uint64 {
	var buf [8]byte
	m.Read(addr, buf[:width])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteU writes the low width bytes of v little-endian at addr.
func (m *Memory) WriteU(addr uint64, v uint64, width uint8) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.Write(addr, buf[:width])
}

// LoadGlobal is the executor's functional load (core.GlobalMem).
func (m *Memory) LoadGlobal(addr uint64, width uint8) uint64 { return m.ReadU(addr, width) }

// StoreGlobal is the executor's functional store (core.GlobalMem).
func (m *Memory) StoreGlobal(addr, v uint64, width uint8) { m.WriteU(addr, v, width) }

// AtomicAdd adds v to the width-byte value at addr and returns the old
// value (core.GlobalMem). SMs tick one at a time, so a plain
// read-modify-write is atomic with respect to every other warp.
func (m *Memory) AtomicAdd(addr, v uint64, width uint8) uint64 {
	old := m.ReadU(addr, width)
	m.WriteU(addr, old+v, width)
	return old
}
