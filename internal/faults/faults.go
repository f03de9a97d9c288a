// Package faults is the seeded, deterministic fault-injection framework
// (the robustness layer the paper's Section 7 motivates: CABA generalizes
// to reliability work — redundant execution, memory-error checking — but a
// simulator can only exercise those paths if it can produce faults).
//
// Faults are injected at fixed sites in the memory system and the SM fill
// path: single-bit flips in compressed payloads on DRAM fill, corrupted
// metadata-cache entries, and dropped or delayed memory responses. Every
// decision is drawn from a per-site splitmix64 stream seeded from
// Config.Seed, and every injection site executes at a fixed point of the
// simulated schedule (SM ticks in index order, then event delivery), so
// the decision sequence is a pure function of the seed and the schedule:
// same seed + same config ⇒ bit-identical fault sites, recovery counters
// and final statistics. A zero-value
// Config disables injection entirely and leaves the simulator's behavior
// untouched.
package faults

import (
	"fmt"

	"github.com/caba-sim/caba/internal/snapshot"
)

// Config selects a deterministic fault-injection campaign. All rates are
// probabilities in [0, 1]; the zero value injects nothing.
type Config struct {
	// Seed drives every injection decision. Runs with equal Seed and
	// rates produce bit-identical fault sites and statistics.
	Seed int64
	// BitFlipRate is the per-fill probability that a compressed line
	// arriving at an SM has one payload bit flipped (a DRAM or bus error
	// surviving into the decompression path).
	BitFlipRate float64
	// MDCorruptRate is the per-access probability that a metadata-cache
	// entry is corrupted. The channel's ECC detects it and refetches the
	// metadata from DRAM (one extra burst), so the fault costs bandwidth
	// but never propagates a wrong burst count.
	MDCorruptRate float64
	// ResponseDropRate is the per-response probability that a read
	// response is lost between the partition and the SM. Dropped
	// responses are unrecoverable at this layer: the waiting warp stalls
	// forever and the simulator's wedge detector converts the hang into
	// a structured error.
	ResponseDropRate float64
	// ResponseDelayRate is the per-response probability that a read
	// response is held for ResponseDelayCycles before delivery (a
	// transient link fault with retry, recovered transparently).
	ResponseDelayRate float64
	// ResponseDelayCycles is the hold time for delayed responses in core
	// cycles (0 selects the default of 500).
	ResponseDelayCycles int
}

// DefaultResponseDelay is the response hold time when
// Config.ResponseDelayCycles is zero.
const DefaultResponseDelay = 500

// Enabled reports whether any fault class has a non-zero rate.
func (c Config) Enabled() bool {
	return c.BitFlipRate > 0 || c.MDCorruptRate > 0 ||
		c.ResponseDropRate > 0 || c.ResponseDelayRate > 0
}

// Validate reports the first problem with the campaign parameters.
func (c Config) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faults: %s %v out of [0,1]", name, v)
		}
		return nil
	}
	if err := check("BitFlipRate", c.BitFlipRate); err != nil {
		return err
	}
	if err := check("MDCorruptRate", c.MDCorruptRate); err != nil {
		return err
	}
	if err := check("ResponseDropRate", c.ResponseDropRate); err != nil {
		return err
	}
	if err := check("ResponseDelayRate", c.ResponseDelayRate); err != nil {
		return err
	}
	if c.ResponseDelayCycles < 0 {
		return fmt.Errorf("faults: ResponseDelayCycles must be non-negative")
	}
	return nil
}

// Site identifies one injection point. Each site draws from its own
// seeded stream so enabling one fault class never perturbs the decision
// sequence of another.
type Site uint8

// Injection sites.
const (
	SiteBitFlip Site = iota
	SiteMDCorrupt
	SiteRespDrop
	SiteRespDelay
	numSites
)

// Injector draws deterministic injection decisions. A nil *Injector is
// valid and never injects, so callers need no enabled-checks at the
// sites. Injector is not safe for concurrent use; all sites run on the
// simulator's main goroutine.
type Injector struct {
	cfg     Config
	streams [numSites]uint64
}

// New builds an injector for the campaign, or nil when the campaign is
// disabled (the nil injector short-circuits every site check).
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	inj := &Injector{cfg: cfg}
	for s := range inj.streams {
		// Distinct golden-ratio offsets decorrelate the per-site streams
		// even under adjacent seeds.
		inj.streams[s] = uint64(cfg.Seed) + uint64(s+1)*0x9E3779B97F4A7C15
	}
	return inj
}

// next advances site s's splitmix64 stream.
func (inj *Injector) next(s Site) uint64 {
	inj.streams[s] += 0x9E3779B97F4A7C15
	z := inj.streams[s]
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// roll draws one decision at the given rate from site s's stream.
func (inj *Injector) roll(s Site, rate float64) bool {
	if inj == nil || rate <= 0 {
		return false
	}
	return float64(inj.next(s)>>11)/(1<<53) < rate
}

// BitFlip decides whether the current compressed fill is corrupted.
func (inj *Injector) BitFlip() bool {
	if inj == nil {
		return false
	}
	return inj.roll(SiteBitFlip, inj.cfg.BitFlipRate)
}

// Corrupt returns a copy of data with one deterministically chosen bit
// flipped. The original is never modified: the corruption models a bad
// transfer, not damage to the stored (backing) copy.
func (inj *Injector) Corrupt(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	bit := inj.next(SiteBitFlip) % uint64(len(out)*8)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// MDCorrupt decides whether the current metadata-cache access hits a
// corrupted entry.
func (inj *Injector) MDCorrupt() bool {
	if inj == nil {
		return false
	}
	return inj.roll(SiteMDCorrupt, inj.cfg.MDCorruptRate)
}

// RespDrop decides whether the current read response is lost.
func (inj *Injector) RespDrop() bool {
	if inj == nil {
		return false
	}
	return inj.roll(SiteRespDrop, inj.cfg.ResponseDropRate)
}

// Snap codes the per-site stream positions of a checkpoint: the site
// count, then each stream. A nil injector codes a count of 0, and a
// count that differs from the decoding injector's means the blob came
// from another campaign or an incompatible build.
func (inj *Injector) Snap(c *snapshot.Codec) {
	if inj == nil {
		c.Shape(0, "fault stream count")
		return
	}
	c.Shape(int(numSites), "fault stream count")
	c.U64s(inj.streams[:])
}

// RespDelay decides whether the current read response is held, returning
// the hold time in core cycles.
func (inj *Injector) RespDelay() (cycles int, delayed bool) {
	if inj == nil {
		return 0, false
	}
	if !inj.roll(SiteRespDelay, inj.cfg.ResponseDelayRate) {
		return 0, false
	}
	d := inj.cfg.ResponseDelayCycles
	if d <= 0 {
		d = DefaultResponseDelay
	}
	return d, true
}
