package gpu

import "github.com/caba-sim/caba/internal/compress"

// Typed event-queue actions and continuations for the SM-side paths that
// used to capture closures. Pending work must be serializable for
// snapshot/restore: every action/continuation that can live across a cycle
// boundary is a named struct encoded by object identity (see snapshot.go);
// behavior is identical to the closures they replace.

// contKind selects a continuation body.
type contKind uint8

const (
	contNone         contKind = iota
	contCompleteFill          // completeFill(ln, fill)
	contLoadLineDone          // loadLineDone(req)
)

// cont is a deferred SM continuation: what to do when a decompression,
// ECC check or recovery refetch finishes. The zero value is a no-op.
type cont struct {
	kind contKind
	ln   uint64
	fill *fillCtx
	req  *loadReq
}

// runCont executes a continuation.
func (sm *SM) runCont(c cont) {
	switch c.kind {
	case contCompleteFill:
		sm.completeFill(c.ln, c.fill)
	case contLoadLineDone:
		sm.loadLineDone(c.req)
	}
}

// decompPlain is the Entry.User payload for a decompression assist warp
// while fault injection is disabled: verify the output and resume the
// fill. (With injection active the richer decompCtx drives the
// detection/recovery chain instead.)
type decompPlain struct {
	ln   uint64
	done cont
}

// actHWCompress finishes a dedicated-logic (DecompHW) store-side
// compression after its fixed latency: compress the line's current bytes
// and release the buffered store.
type actHWCompress struct {
	sm *SM
	se *storeEntry
}

// Run compresses and releases.
func (a actHWCompress) Run() {
	a.sm.domCompressLine(a.se.lineAddr)
	a.sm.releaseStore(a.se)
}

// actCompleteFill delivers a fill after the dedicated decompressor's
// latency (DecompHW fill path).
type actCompleteFill struct {
	sm   *SM
	ln   uint64
	fill *fillCtx
}

// Run completes the fill.
func (a actCompleteFill) Run() { a.sm.completeFill(a.ln, a.fill) }

// actHWDetect is the dedicated decompressor's output check tripping on an
// injected bit flip: count the detection and refetch the raw line, with
// the original fill as the recovery continuation.
type actHWDetect struct {
	sm   *SM
	ln   uint64
	fill *fillCtx
}

// Run detects and recovers.
func (a actHWDetect) Run() {
	a.sm.stat.FaultsDetected++
	a.sm.refetchRaw(a.ln, cont{kind: contCompleteFill, ln: a.ln, fill: a.fill})
}

// pendingKind selects a queued assist-warp trigger body.
type pendingKind uint8

const (
	pendCompress pendingKind = iota // next compression-chain step for se
	pendDecomp                      // decompression AW for a compressed fill
	pendECC                         // ECC check over a decompressed image
)

// pendingTrigger is one assist-warp trigger waiting for AWT/AWB space; the
// SM retries it on each tick after capacity frees (SM.retryArmed) until it
// lands.
type pendingTrigger struct {
	kind pendingKind
	se   *storeEntry // pendCompress
	ln   uint64      // pendDecomp
	st   compress.Compressed
	warp int
	done cont       // pendDecomp completion
	dc   *decompCtx // pendDecomp (injection active) / pendECC
}

// runTrigger attempts one queued trigger; true means it no longer needs
// retrying (landed, or its target was abandoned).
func (sm *SM) runTrigger(pt *pendingTrigger) bool {
	switch pt.kind {
	case pendCompress:
		return sm.tryCompressStep(pt.se)
	case pendDecomp:
		return sm.tryDecompTrigger(pt)
	default:
		return sm.tryECC(pt.dc)
	}
}
