package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/caba-sim/caba/internal/compress"
)

// oracleLines are the line contents the library routines are stepped on:
// all zeros, small 4-byte integers, 8-byte base+delta values and noise.
func oracleLines() map[string][]byte {
	zero := make([]byte, compress.LineSize)
	small := make([]byte, compress.LineSize)
	for i := 0; i < compress.LineSize/4; i++ {
		binary.LittleEndian.PutUint32(small[i*4:], uint32(i*37%200))
	}
	baseDelta := make([]byte, compress.LineSize)
	for i := 0; i < compress.LineSize/8; i++ {
		binary.LittleEndian.PutUint64(baseDelta[i*8:], 0x7F00_1234_5000+uint64(i*9))
	}
	random := make([]byte, compress.LineSize)
	rand.New(rand.NewSource(7)).Read(random)
	return map[string][]byte{"zero": zero, "small-int": small, "base+delta": baseDelta, "random": random}
}

// oracleInputs returns the staging inputs for one line: the raw line
// (what the compression routines read) and every compressed payload of it
// — each algorithm's choice and every BDI encoding the line fits — which
// the decompression routines read. A routine handed another routine's
// input still has to agree across the engines.
func oracleInputs(line []byte) map[string][]byte {
	in := map[string][]byte{"raw": line}
	for _, alg := range []compress.AlgID{compress.AlgBDI, compress.AlgFPC, compress.AlgCPack} {
		if c, err := compress.Compress(alg, line); err == nil && c.IsCompressed() {
			in[alg.String()] = c.Data
		}
	}
	for enc := compress.BDIZeros; enc < compress.BDINumEncodings; enc++ {
		if c, ok := compress.BDICompressAs(line, enc); ok {
			in["bdi-"+enc.String()] = c.Data
		}
	}
	return in
}

// TestLibraryRoutinesMatchInterpreter steps every routine of the assist
// warp library on the decoded engine and on the interpreter in lockstep,
// over zero, small-integer, base+delta and random lines, raw and in every
// compressed form. Live-in registers r2-r4 carry per-lane values derived
// from the line (the memoization and prefetch routines read them), and the
// scratch shared memory the memoization routines probe is pre-filled with
// line-derived bytes.
func TestLibraryRoutinesMatchInterpreter(t *testing.T) {
	lib := BuildLibrary()
	ids := make([]RoutineID, 0, lib.Len())
	for id := range lib.routines {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	lines := oracleLines()
	for _, id := range ids {
		rt := lib.MustGet(id)
		for lname, line := range lines {
			for iname, input := range oracleInputs(line) {
				setup := func(e *Exec) {
					e.StageIn = make([]byte, StageBufSize)
					e.StageOut = make([]byte, StageBufSize)
					e.Shared = make([]byte, SharedScratchSize)
					copy(e.StageIn, input)
					for i := range e.Shared {
						e.Shared[i] = line[i%len(line)] ^ byte(i>>3)
					}
					for lane := 0; lane < WarpSize; lane++ {
						w := uint64(binary.LittleEndian.Uint32(line[lane*4:]))
						for r, v := range []uint64{w, 3*w + 1, w % 64 * 8} {
							if 2+r < rt.Prog.NumReg {
								e.SetReg(lane, 2+r, v)
							}
						}
					}
				}
				label := fmt.Sprintf("%s line=%s input=%s", rt.Name, lname, iname)
				if dec := lockstep(t, label, rt.Prog, rt.ActiveMask, setup); !dec.Done {
					t.Errorf("%s: did not finish within the step bound", label)
				}
			}
		}
	}
}
