package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	caba "github.com/caba-sim/caba"
)

// TestSoakSeededChaos is the randomized overload/chaos soak for the
// whole farm stack. One seeded rng (SOAK_SEED, default 1) derives the
// entire chaos schedule — which cells suffer worker kills, hangs and
// OOM aborts, when the coordinator is killed and restarted with
// torn-write injection, when the lease clock skews, how slow the store's
// disk is — so a failure reproduces by re-running with the same seed.
//
// The sweep runs under all of it at once and the test then asserts the
// paper-grade invariants:
//
//   - every healthy cell's result is byte-identical to an uninterrupted
//     in-process run;
//   - exactly one cell (the designated worker-killer) was quarantined by
//     the poison breaker, with at least PoisonThreshold distinct victims
//     in its sealed record;
//   - admission control engaged (at least one 429 was served) and the
//     submitter recovered by retrying;
//   - the journal was compacted at least once across incarnations;
//   - a final fresh coordinator over the surviving state serves the
//     entire sweep as cache hits.
func TestSoakSeededChaos(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("SOAK_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SOAK_SEED %q: %v", s, err)
		}
		seed = v
	}
	rng := rand.New(rand.NewSource(seed))
	t.Logf("soak seed %d (set SOAK_SEED to reproduce the chaos schedule)", seed)

	const (
		ttl             = 250 * time.Millisecond * soakTimeScale
		poisonThreshold = 4
		fleetSize       = 4
	)

	// The sweep grid: 8 cells, the first designated as the poison cell —
	// every worker that leases it "dies" (hookDie) before running it.
	var cells []Cell
	for _, app := range []string{"PVC", "SCP"} {
		for _, design := range []string{"Base", "CABA-BDI"} {
			for _, s := range []int64{11, 12} {
				cells = append(cells, testCell(app, design, 0.02, s))
			}
		}
	}
	// keyOf is called from worker-hook goroutines, so it must not touch
	// t; Key cannot fail for the valid cells this test builds.
	keyOf := func(c Cell) string {
		k, _ := c.Key()
		return KeyString(k)
	}
	poisonKey := keyOf(cells[0])
	var healthy []Cell
	healthyKeys := make([]string, 0, len(cells)-1)
	for _, c := range cells[1:] {
		healthy = append(healthy, c)
		healthyKeys = append(healthyKeys, keyOf(c))
	}

	// Chaos schedule, all derived from the seed before anything runs.
	// Each healthy cell suffers at most ONE chaos event, fired once
	// globally (attempt numbering resets across coordinator restarts, so
	// per-attempt triggers would double-fire): with clock-skew harvests
	// bounded to 2, a healthy cell can collect at most 3 victims — below
	// the poison threshold of 4, so only the designated cell quarantines.
	chaosKind := map[string]string{}
	// OOM needs a cell that outlives the 20ms watchdog tick: PVC/CABA-BDI.
	chaosKind[healthyKeys[2]] = "oom" // healthy[2] = PVC/CABA-BDI seed 11
	rest := rng.Perm(len(healthy))
	kinds := []string{"kill", "hang", "flaky"}
	for _, idx := range rest {
		if len(kinds) == 0 {
			break
		}
		if _, taken := chaosKind[healthyKeys[idx]]; taken {
			continue
		}
		chaosKind[healthyKeys[idx]] = kinds[0]
		kinds = kinds[1:]
	}
	if healthy[2].App != "PVC" || healthy[2].Design.Name != "CABA-BDI" {
		t.Fatalf("grid order changed: healthy[2] = %s, want PVC/CABA-BDI for the oom slot", healthy[2].Label())
	}
	restartTimes := []time.Duration{
		time.Duration(700+rng.Intn(800)) * time.Millisecond * soakTimeScale,
		time.Duration(1800+rng.Intn(1000)) * time.Millisecond * soakTimeScale,
	}
	skewTimes := []time.Duration{
		time.Duration(500+rng.Intn(700)) * time.Millisecond * soakTimeScale,
		time.Duration(1500+rng.Intn(1200)) * time.Millisecond * soakTimeScale,
	}
	downWindow := time.Duration(150+rng.Intn(150)) * time.Millisecond * soakTimeScale
	slowDelay := time.Duration(1+rng.Intn(3)) * time.Millisecond

	// Uninterrupted in-process references for every healthy cell.
	refs := make(map[string][]byte, len(healthy))
	for i, c := range healthy {
		res, err := caba.Run(c.Config, c.Design, c.App, c.Seed)
		if err != nil {
			t.Fatalf("reference %s: %v", c.Label(), err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		refs[healthyKeys[i]] = raw
	}

	// Coordinator behind a swappable handler: the URL stays stable across
	// kill/restart cycles, exactly like a respawning farmd behind one
	// address. The lease clock is real time plus an injectable skew.
	var skewNs atomic.Int64
	skewedNow := func() time.Time { return time.Now().Add(time.Duration(skewNs.Load())) }
	cfg := CoordinatorConfig{
		LeaseTTL: ttl, MaxAttempts: 12,
		RetryBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		MaxQueue: 4, PoisonThreshold: poisonThreshold, CompactMinLines: 4,
		Now: skewedNow,
	}
	dir := t.TempDir()
	cfg.Dir = dir
	slowWrite := func() { time.Sleep(slowDelay) }
	// openCoordinator is also called from the restart goroutine, where
	// t.Fatalf is illegal — it returns the error instead.
	openCoordinator := func() (*Coordinator, error) {
		c, err := NewCoordinator(cfg)
		if err != nil {
			return nil, err
		}
		c.Store().slowWrite = slowWrite
		return c, nil
	}

	var cur atomic.Value // http.Handler
	downHandler := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "farm: coordinator restarting (soak chaos)", http.StatusServiceUnavailable)
	}))
	var mu sync.Mutex // guards coord and restart transitions
	coord, err := openCoordinator()
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	cur.Store(coord.Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		if coord != nil {
			coord.Close()
		}
	}()

	soakCtx, soakCancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer soakCancel()
	start := time.Now()
	var compactTotal atomic.Uint64
	var restarts atomic.Int64

	// Coordinator kill/restart with torn-write and stale-compaction-tmp
	// injection: the journal gets a garbage tail (a write torn by the
	// "crash") and a leftover compaction temp file, both of which the
	// reopen must survive. The old coordinator stops its janitor before
	// the address starts refusing requests: a dead coordinator harvests
	// no leases, so none may expire while heartbeats get 503.
	restart := func() {
		mu.Lock()
		defer mu.Unlock()
		if soakCtx.Err() != nil {
			return
		}
		coord.Quiesce()
		coord.Close()
		compactTotal.Add(coord.compactions.Load()) // the janitor has stopped
		cur.Store(downHandler)
		if f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0); err == nil {
			f.WriteString(`{"key":"torn-by-soak-crash`)
			f.Close()
		}
		os.WriteFile(filepath.Join(dir, compactTmpName), []byte("soak garbage"), 0o644)
		time.Sleep(downWindow)
		nc, err := openCoordinator()
		if err != nil {
			t.Errorf("soak restart: reopen failed: %v", err)
			soakCancel()
			return
		}
		coord = nc
		cur.Store(coord.Handler())
		restarts.Add(1)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, at := range restartTimes {
			if !sleepCtx(soakCtx, time.Until(start.Add(at))) {
				return
			}
			restart()
		}
	}()

	// Lease-clock skew: each event jumps the coordinator's clock forward
	// by two TTLs, expiring every live lease at once.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, at := range skewTimes {
			if !sleepCtx(soakCtx, time.Until(start.Add(at))) {
				return
			}
			skewNs.Add(int64(2 * ttl))
		}
	}()

	// The worker fleet. Chaos hooks fire each cell's event exactly once
	// across the whole soak; the poison cell kills every worker that
	// draws it, and the supervisor respawns fresh-named replacements (so
	// distinct victims accumulate to the threshold).
	var fired sync.Map
	shouldFire := func(ks string) bool {
		_, loaded := fired.LoadOrStore(ks, true)
		return !loaded
	}
	hooks := workerHooks{
		beforeRunAction: func(cell Cell, attempt int) hookAction {
			ks := keyOf(cell)
			if ks == poisonKey {
				return hookDie
			}
			if chaosKind[ks] == "kill" && shouldFire(ks) {
				return hookDie
			}
			return hookContinue
		},
		beforeRun: func(cell Cell, attempt int) error {
			ks := keyOf(cell)
			switch chaosKind[ks] {
			case "hang":
				if shouldFire(ks) {
					time.Sleep(ttl + ttl/2) // lease expires underneath
					return fmt.Errorf("soak: synthetic hang on %s", cell.Label())
				}
			case "flaky":
				if shouldFire(ks) {
					return fmt.Errorf("soak: synthetic transient failure on %s", cell.Label())
				}
			}
			return nil
		},
		memLimitFor: func(cell Cell, attempt int) int64 {
			if chaosKind[keyOf(cell)] == "oom" && shouldFire(keyOf(cell)) {
				return 1 // unmeetable budget: resource-exhausted abort
			}
			return 0
		},
	}
	var workerSeq, respawns atomic.Int64
	for i := 0; i < fleetSize; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for soakCtx.Err() == nil {
				w := NewWorker(srv.URL, WorkerConfig{
					Name:            fmt.Sprintf("soak-w%d", workerSeq.Add(1)),
					PollInterval:    15 * time.Millisecond,
					CellTimeout:     30 * time.Second,
					CheckpointEvery: 1000,
				})
				w.hooks = hooks
				w.Run(soakCtx)
				if !w.killed {
					return // graceful exit: soak cancelled
				}
				if respawns.Add(1) > 80 {
					return // runaway guard; the test will fail on its asserts
				}
			}
		}()
	}

	// Submit the sweep against the overloaded queue (cap 4, 8 cells):
	// the first submission is guaranteed to hit admission control, and
	// the client recovers by resubmitting the identical request — safe by
	// content-address idempotence — until everything is admitted.
	soakPost := func(url string, in, out any) (int, string) {
		raw, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		resp, err := http.Post(url, "application/json", strings.NewReader(string(raw)))
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return resp.StatusCode, string(body)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return 0, err.Error()
			}
		}
		return resp.StatusCode, ""
	}
	deadline := time.Now().Add(90 * time.Second)
	saw429 := 0
	for {
		if time.Now().After(deadline) {
			t.Fatalf("sweep not fully admitted in time (%d 429s seen)", saw429)
		}
		code, msg := soakPost(srv.URL+"/sweep", &SweepRequest{Cells: cells, Client: "soak"}, nil)
		if code == 200 {
			break
		}
		if code == http.StatusTooManyRequests {
			saw429++
		} else if code != http.StatusServiceUnavailable && code != 0 {
			t.Fatalf("sweep: HTTP %d (%s)", code, msg)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Wait for the sweep to drain: every one of the 8 cells terminal.
	for {
		if time.Now().After(deadline) {
			st, _ := func() (*StatusResponse, string) {
				var st StatusResponse
				resp, err := http.Get(srv.URL + "/status?results=0")
				if err != nil {
					return nil, err.Error()
				}
				defer resp.Body.Close()
				json.NewDecoder(resp.Body).Decode(&st)
				return &st, ""
			}()
			t.Fatalf("sweep did not drain in time: %+v (restarts %d, respawns %d)",
				st, restarts.Load(), respawns.Load())
		}
		resp, err := http.Get(srv.URL + "/status?results=0&wait_ms=500")
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		var st StatusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if st.Drained && st.Done+st.Failed == len(cells) {
			break
		}
		// Under saturation the coordinator sheds long-polls (the poll
		// returns immediately); don't turn that protection into a
		// busy-loop against it.
		time.Sleep(25 * time.Millisecond)
	}
	soakCancel()
	wg.Wait()

	// Final accounting on the last incarnation.
	mu.Lock()
	final := coord
	mu.Unlock()
	final.maybeCompact() // the janitor's trigger, forced so timing can't hide it
	compactTotal.Add(final.compactions.Load())

	st := statusT(t, srv.URL, "")
	if st.Done != len(healthy) || st.Failed != 1 || st.Poisoned != 1 {
		t.Fatalf("final status = done %d, failed %d, poisoned %d; want %d done, 1 failed, 1 poisoned",
			st.Done, st.Failed, st.Poisoned, len(healthy))
	}
	for i, ks := range healthyKeys {
		res := st.Results[ks]
		if res == nil {
			t.Fatalf("no result for healthy cell %s (%s)", healthy[i].Label(), ks)
		}
		raw, _ := json.Marshal(res)
		if string(raw) != string(refs[ks]) {
			t.Errorf("cell %s seed %d: farm result differs from uninterrupted in-process run",
				healthy[i].Label(), healthy[i].Seed)
		}
	}
	if len(st.Failures) != 1 || st.Failures[0].Key != poisonKey || !st.Failures[0].Poison {
		t.Fatalf("failures = %+v, want exactly the designated poison cell quarantined", st.Failures)
	}
	if _, victims, _, ok := final.Store().GetPoison(mustKey(t, cells[0])); !ok || len(victims) < poisonThreshold {
		t.Errorf("poison record: ok=%v victims=%v, want a sealed record with >= %d distinct victims",
			ok, victims, poisonThreshold)
	}
	if saw429 == 0 {
		t.Error("admission control never engaged: no 429 was served to the submitter")
	}
	if compactTotal.Load() == 0 {
		t.Error("journal was never compacted across any coordinator incarnation")
	}
	t.Logf("soak: %d restarts, %d worker respawns, %d 429s, %d compactions, %d journal victims on poison cell",
		restarts.Load(), respawns.Load(), saw429, compactTotal.Load(), poisonThreshold)

	// Epilogue: a fresh coordinator over the battle-scarred state serves
	// the whole sweep from the store — nothing re-simulates.
	mu.Lock()
	cur.Store(downHandler)
	coord.Quiesce()
	coord.Close()
	coord, err = openCoordinator()
	mu.Unlock()
	if err != nil {
		t.Fatalf("epilogue reopen: %v", err)
	}
	cur.Store(coord.Handler())
	var sw SweepResponse
	if code, msg := soakPost(srv.URL+"/sweep", &SweepRequest{Cells: cells, Client: "soak"}, &sw); code != 200 {
		t.Fatalf("epilogue sweep: HTTP %d (%s)", code, msg)
	}
	if sw.CacheHits != len(cells) || sw.Accepted != 0 {
		t.Fatalf("epilogue sweep = %+v, want all %d cells as cache hits", sw, len(cells))
	}
}

// mustKey returns a cell's content address or fails the test.
func mustKey(t *testing.T, c Cell) uint64 {
	t.Helper()
	k, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}
