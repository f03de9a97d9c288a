package gpu_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/caba-sim/caba/internal/gpu"
)

// notRestored lists the fields a snapshot need not carry, each with the
// reason: derived state its owner rebuilds, scratch, observation output
// that lives outside the machine, and caller wiring. Keys are
// "package.Type.field". TestSnapshotRestoresEveryField fails on an entry
// that names no field of a type the walk reached.
var notRestored = map[string]string{
	// The event queue is compared through Snapshot(): pending events in
	// firing order with their times and sequence numbers.
	"timing.Queue.buf":  "storage layout; the queue is compared by its Snapshot() view",
	"timing.Queue.head": "storage layout; the queue is compared by its Snapshot() view",

	"gpu.Simulator.OnCheckpoint": "the caller's checkpoint sink, not machine state",
	"gpu.Simulator.restored":     "marks a simulator LoadState populated",
	"gpu.Simulator.nextCkpt":     "maintenance schedule, rebuilt by Run from the cycle and the cadence knobs",
	"gpu.Simulator.nextAudit":    "maintenance schedule, rebuilt by Run from the cycle and the cadence knobs",
	"gpu.Simulator.nextMaint":    "maintenance schedule, rebuilt by Run from the cycle and the cadence knobs",
	"gpu.Simulator.frSim":        "flight recorder, observation of the run",
	"gpu.Simulator.tr":           "trace recorder, observation of the run",

	"gpu.SM.scan":         "issue-stage verdict masks: residency is restored, the verdicts restart empty",
	"gpu.SM.head":         "GTO list, rebuilt from lastIssueCycle on the first tick (orderDirty)",
	"gpu.SM.tail":         "GTO list, rebuilt from lastIssueCycle on the first tick (orderDirty)",
	"gpu.SM.next":         "GTO list, rebuilt from lastIssueCycle on the first tick (orderDirty)",
	"gpu.SM.prev":         "GTO list, rebuilt from lastIssueCycle on the first tick (orderDirty)",
	"gpu.SM.orderDirty":   "forces the GTO rebuild after a restore",
	"gpu.SM.issuedBuf":    "GTO scratch, consumed within a tick",
	"gpu.SM.lineBuf":      "coalescing scratch",
	"gpu.SM.awLineBuf":    "coalescing scratch",
	"gpu.SM.qValid":       "quiescence cache, dropped on restore and re-proven",
	"gpu.SM.qKind":        "quiescence cache verdict, valid only while qValid",
	"gpu.SM.qHorizon":     "quiescence cache horizon, valid only while qValid",
	"gpu.SM.qBlameW":      "quiescence cache blame, valid only while qValid",
	"gpu.SM.qBlameC":      "quiescence cache blame, valid only while qValid",
	"gpu.SM.retryArmed":   "retry-scan hint derived from the queue, re-armed on restore",
	"gpu.SM.execPool":     "recycled assist-warp execution contexts",
	"gpu.SM.warpExecPool": "recycled warp execution contexts",
	"gpu.SM.aluPorts":     "issue ports, reset at the start of every tick",
	"gpu.SM.lsuPorts":     "issue ports, reset at the start of every tick",

	"gpu.SM.fr": "flight recorder, observation of the run",
	"gpu.SM.tr": "trace shard, observation of the run",

	"gpu.warpCtx.memoKey":   "memo-key cache over the current instruction",
	"gpu.warpCtx.memoKeyOK": "memo-key cache over the current instruction",

	"core.Exec.tmp":  "scratch row within one step",
	"core.Exec.info": "per-step result buffer, overwritten by every step",

	"isa.Program.ipdomOnce": "post-dominator cache over the immutable code, computed on first use",
	"isa.Program.ipdom":     "post-dominator cache over the immutable code, computed on first use",
	"isa.Program.decOnce":   "predecoded form of the immutable code, computed on first use",
	"isa.Program.dec":       "predecoded form of the immutable code, computed on first use",
}

// byValue lists slice fields whose storage may be shared with other state
// but is never written in place, so a restored copy that owns its bytes
// is as good as the shared original: they are compared by content, not
// identity.
var byValue = map[string]string{
	"compress.Compressed.Data": "a compressed payload is replaced, never written in place; a queued trigger's copy may share the domain's",
}

// TestSnapshotRestoresEveryField takes each TestDifferential row's
// split-50 checkpoint, restores it into a fresh simulator and walks both
// machines by reflection from *gpu.Simulator. It follows pointers,
// slices, maps and interfaces, matches pointers one-to-one (so lost
// aliasing fails too), compares the event queue by its Snapshot() view,
// and requires equality everywhere except notRestored. A lost field that
// is not derived is a codec bug.
func TestSnapshotRestoresEveryField(t *testing.T) {
	var mu sync.Mutex
	reached := map[reflect.Type]bool{}
	t.Run("rows", func(t *testing.T) {
		for _, row := range diffRows {
			t.Run(row.name, func(t *testing.T) {
				t.Parallel()
				w := restoreAndWalk(t, row)
				mu.Lock()
				for typ := range w.types {
					reached[typ] = true
				}
				mu.Unlock()
			})
		}
	})
	fields := map[string]bool{}
	for typ := range reached {
		for i := range typ.NumField() {
			fields[typ.String()+"."+typ.Field(i).Name] = true
		}
	}
	for _, table := range []map[string]string{notRestored, byValue} {
		for name := range table {
			if !fields[name] {
				t.Errorf("%s is no field of a type the walk reached", name)
			}
		}
	}
}

// errSplitDone stops a run once its split point has been checked.
var errSplitDone = errors.New("split checked")

// restoreAndWalk runs row like TestDifferential's split-50 variant and
// compares the saving machine with its restored copy at the checkpoint.
func restoreAndWalk(t *testing.T, row diffRow) *walker {
	on := row.config()
	on.SampleEvery = 500
	on.AttributeStalls = true
	ref, _ := simulate(t, row, on, false, 0, nil)
	cfg := on
	neutralSetters["CheckpointEvery"](&cfg, ref.cycles, "")
	target := ref.cycles * 50 / 100

	saver, inst := build(t, row, cfg, nil)
	w := newWalker()
	checked := false
	saver.OnCheckpoint = func(cycle uint64, blob []byte) error {
		if cycle < target {
			return nil
		}
		restored, _ := build(t, row, cfg, blob)
		w.compare(saver, restored)
		checked = true
		return errSplitDone
	}
	if err := saver.Run(inst.MaxCycles()); err != nil && !errors.Is(err, errSplitDone) {
		t.Fatalf("run: %v", err)
	}
	if !checked {
		t.Fatalf("no checkpoint at or after cycle %d", target)
	}
	if w.diff != "" {
		t.Errorf("restored machine differs: %s", w.diff)
	}
	return w
}

// ptrKey identifies a pointer or slice base by address and type.
type ptrKey struct {
	p uintptr
	t reflect.Type
}

// pending is a pointer target the walk has still to compare.
type pending struct {
	path string
	a, b reflect.Value
}

// walker compares two object graphs and records the first difference.
type walker struct {
	queue   []pending
	ab, ba  map[ptrKey]uintptr    // pointer matching, both ways
	visited map[[2]ptrKey]bool    // pointer pairs already walked
	types   map[reflect.Type]bool // struct types reached
	shared  bool                  // walking a byValue field
	diff    string
}

func newWalker() *walker {
	return &walker{
		ab:      map[ptrKey]uintptr{},
		ba:      map[ptrKey]uintptr{},
		visited: map[[2]ptrKey]bool{},
		types:   map[reflect.Type]bool{},
	}
}

// compare walks the two simulators, then their event queues' Snapshot()
// views.
func (w *walker) compare(a, b *gpu.Simulator) {
	w.walk("sim", reflect.ValueOf(a), reflect.ValueOf(b))
	an, as, aev := a.Q.Snapshot()
	bn, bs, bev := b.Q.Snapshot()
	w.walk("sim.Q.Snapshot().now", reflect.ValueOf(an), reflect.ValueOf(bn))
	w.walk("sim.Q.Snapshot().seq", reflect.ValueOf(as), reflect.ValueOf(bs))
	w.walk("sim.Q.Snapshot().events", reflect.ValueOf(aev), reflect.ValueOf(bev))
	// Breadth first over pointer hops, so the difference reported is
	// one nearest the root.
	for len(w.queue) > 0 && w.diff == "" {
		p := w.queue[0]
		w.queue = w.queue[1:]
		w.walk(p.path, p.a, p.b)
	}
}

func (w *walker) fail(path, format string, args ...any) {
	if w.diff == "" {
		w.diff = path + ": " + fmt.Sprintf(format, args...)
	}
}

// match pairs pointer (or slice base) pa of the saving machine with pb of
// the restored one, failing if either was paired with something else.
func (w *walker) match(path string, t reflect.Type, pa, pb uintptr) bool {
	ka, kb := ptrKey{pa, t}, ptrKey{pb, t}
	if m, ok := w.ab[ka]; ok && m != pb {
		w.fail(path, "aliasing lost: this %s was reached before as a different restored object", t)
		return false
	}
	if m, ok := w.ba[kb]; ok && m != pa {
		w.fail(path, "aliasing added: the restored %s also stands for a different saved object", t)
		return false
	}
	w.ab[ka], w.ba[kb] = pb, pa
	return true
}

func (w *walker) walk(path string, a, b reflect.Value) {
	if w.diff != "" {
		return
	}
	switch a.Kind() {
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.fail(path, "%v, restored %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.fail(path, "%d, restored %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			w.fail(path, "%d, restored %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			w.fail(path, "%v, restored %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.fail(path, "%q, restored %q", a.String(), b.String())
		}
	case reflect.Func:
		if a.IsNil() != b.IsNil() || a.Pointer() != b.Pointer() {
			w.fail(path, "function differs")
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.fail(path, "nil %v, restored nil %v", a.IsNil(), b.IsNil())
			}
			return
		}
		if !w.match(path, a.Type(), a.Pointer(), b.Pointer()) {
			return
		}
		pair := [2]ptrKey{{a.Pointer(), a.Type()}, {b.Pointer(), b.Type()}}
		if !w.visited[pair] {
			w.visited[pair] = true
			w.queue = append(w.queue, pending{path, a.Elem(), b.Elem()})
		}
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.fail(path, "nil %v, restored nil %v", a.IsNil(), b.IsNil())
			}
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			w.fail(path, "holds %s, restored %s", a.Elem().Type(), b.Elem().Type())
			return
		}
		w.walk(path+".("+a.Elem().Type().String()+")", a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			w.fail(path, "length %d, restored %d", a.Len(), b.Len())
			return
		}
		if a.Len() == 0 || !w.shared && !w.match(path, a.Type(), a.Pointer(), b.Pointer()) {
			return
		}
		w.elems(path, a, b)
	case reflect.Array:
		w.elems(path, a, b)
	case reflect.Map:
		w.maps(path, a, b)
	case reflect.Struct:
		typ := a.Type()
		w.types[typ] = true
		for i := range typ.NumField() {
			name := typ.String() + "." + typ.Field(i).Name
			if _, skip := notRestored[name]; skip {
				continue
			}
			_, w.shared = byValue[name]
			w.walk(path+"."+typ.Field(i).Name, a.Field(i), b.Field(i))
			w.shared = false
		}
	default:
		if !a.IsNil() || !b.IsNil() {
			w.fail(path, "cannot compare a %s; list it in notRestored with a reason", a.Type())
		}
	}
}

// elems compares slice or array elements; byte runs compare at once.
func (w *walker) elems(path string, a, b reflect.Value) {
	if a.Type().Elem().Kind() == reflect.Uint8 && (a.Kind() == reflect.Slice || a.CanAddr()) {
		if x, y := a.Bytes(), b.Bytes(); !bytes.Equal(x, y) {
			i := 0
			for x[i] == y[i] {
				i++
			}
			w.fail(fmt.Sprintf("%s[%d]", path, i), "%d, restored %d", x[i], y[i])
		}
		return
	}
	for i := range a.Len() {
		w.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
	}
}

// maps compares maps with value-typed keys in key order; a nil and an
// empty map are equal.
func (w *walker) maps(path string, a, b reflect.Value) {
	if a.Len() != b.Len() {
		w.fail(path, "%d entries, restored %d", a.Len(), b.Len())
		return
	}
	keys := a.MapKeys()
	switch a.Type().Key().Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		sort.Slice(keys, func(i, j int) bool { return keys[i].Uint() < keys[j].Uint() })
	case reflect.String:
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	default:
		if a.Len() > 0 {
			w.fail(path, "cannot match %s keys; list the map in notRestored with a reason", a.Type().Key())
		}
		return
	}
	for _, k := range keys {
		bv := b.MapIndex(k)
		kp := fmt.Sprintf("%s[%v]", path, strings.TrimSpace(fmt.Sprint(keyString(k))))
		if !bv.IsValid() {
			w.fail(kp, "missing from the restored map")
			return
		}
		w.walk(kp, a.MapIndex(k), bv)
	}
}

// keyString renders a basic map key without calling Interface, which
// reflection forbids on unexported fields.
func keyString(k reflect.Value) string {
	switch k.Kind() {
	case reflect.String:
		return k.String()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return fmt.Sprint(k.Int())
	default:
		return fmt.Sprintf("%#x", k.Uint())
	}
}
