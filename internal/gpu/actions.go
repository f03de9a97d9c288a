package gpu

import "github.com/caba-sim/caba/internal/compress"

// The SM's pending work is plain data that the SM dispatches by kind, so
// snapshot/restore can serialize it (snapshot.go) and nothing on the event
// queue or in the AWT is a closure: smEvent is the SM's queued event,
// cont a deferred continuation, pendingTrigger an assist-warp trigger
// waiting for AWT space, and an AWT entry's User payload selects its
// completion (completionOf).

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

// smEvent is one of the SM's queued events, the dedicated-logic
// (DecompHW) paths that complete after a fixed latency. kind is the
// snapshot format's action tag:
//
//   - akHWCompress: compress se's line with its current bytes and
//     release the buffered store;
//   - akCompleteFill: deliver fill after the decompressor's latency;
//   - akHWDetect: the decompressor's output check trips on an injected
//     bit flip, counts the detection and refetches the raw line, with
//     the original fill as the recovery continuation.
type smEvent struct {
	sm   *SM
	kind uint8
	ln   uint64
	se   *storeEntry // akHWCompress
	fill *fillCtx    // akCompleteFill, akHWDetect
}

// Run enters the SM: it drops the quiescence verdict first (touch), then
// runs the kind's work.
func (a smEvent) Run() {
	sm := a.sm
	sm.touch()
	switch a.kind {
	case akHWCompress:
		sm.domCompressLine(a.se.lineAddr)
		sm.releaseStore(a.se)
	case akCompleteFill:
		sm.completeFill(a.ln, a.fill)
	case akHWDetect:
		sm.stat.FaultsDetected++
		sm.refetchRaw(a.ln, cont{kind: contCompleteFill, ln: a.ln, fill: a.fill})
	}
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
