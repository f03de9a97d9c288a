// Package obs is the simulator's deterministic observability layer: a
// cycle-sampled metrics time-series (Series), per-warp stall attribution
// tables (Attr), and a Perfetto/Chrome-trace exporter (Trace).
//
// All three are pure data sinks. They never influence the simulated
// machine: every recorder call is nil-gated at the call site, so with the
// observability knobs at their zero values the simulator executes the
// exact same instruction stream and allocates nothing extra, and with
// them enabled the simulated statistics remain bit-identical. The layer
// composes with the simulator's other runtime mechanisms:
//
//   - The per-SM quiescence cache: a tick it replays charges its slots
//     to the cached quiescent blame, exactly as the full tick would, and
//     samples are read after every tick, so the series and attribution
//     match the per-cycle reference.
//   - Snapshot/restore: Series and Attr serialize into the simulator
//     snapshot payload, so a resumed run emits the identical series a
//     straight-through run would; open trace spans are re-opened for
//     live entities on load.
package obs
