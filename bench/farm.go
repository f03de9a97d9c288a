package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/farm"
)

// farmCheckpointEvery is the workers' checkpoint-upload cadence, chosen to
// reproduce the checkpoint load of farmworker's default 100k-cycle cadence
// on FARM.md's scale-0.25 sweeps. Measured on this workload's grid (seed
// 1): at scale 0.25 and 100k, 7 of 68 cells checkpoint (0.10 per cell),
// and SaveState plus an fsynced write of each blob take 0.5% of the
// grid's host time; at scale 0.05, 50k gives 0.07 per cell and 0.8%,
// 30k gives 0.13 and 1.3%, 10k gives 0.96 and 8.8%, and 100k none.
const farmCheckpointEvery = 50_000

// farmRig is a coordinator served on loopback with in-process workers,
// built only from the farm package's public API.
type farmRig struct {
	coord   *farm.Coordinator
	srv     *http.Server
	srvDone chan struct{}
	url     string
	client  *http.Client

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// startFarm opens a coordinator over dir, serves it on a loopback port —
// through the benchmark's route timer when rec is non-nil — and starts n
// workers with SMWorkers=1 and the benchmark's checkpoint cadence.
func startFarm(dir string, n int, rec *recorder) (*farmRig, error) {
	coord, err := farm.NewCoordinator(farm.CoordinatorConfig{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	var h http.Handler = coord.Handler()
	if rec != nil {
		h = &routeTimer{next: h, rec: rec}
	}
	r := &farmRig{
		coord:   coord,
		srv:     &http.Server{Handler: h},
		srvDone: make(chan struct{}),
		url:     "http://" + ln.Addr().String(),
		client:  &http.Client{},
	}
	go func() {
		defer close(r.srvDone)
		r.srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	ctx, cancel := context.WithCancel(context.Background())
	r.stopWorkers = cancel
	for i := 0; i < n; i++ {
		wk := farm.NewWorker(r.url, farm.WorkerConfig{
			Name:            fmt.Sprintf("w%d", i+1),
			SMWorkers:       1,
			CheckpointEvery: farmCheckpointEvery,
		})
		r.workers.Add(1)
		go func() {
			defer r.workers.Done()
			wk.Run(ctx) // returns nil once ctx is cancelled
		}()
	}
	return r, nil
}

// stop stops the workers, the server and the coordinator, waiting for each.
func (r *farmRig) stop() {
	r.stopWorkers()
	r.workers.Wait()
	r.srv.Close()
	<-r.srvDone
	r.client.CloseIdleConnections()
	r.coord.Close()
}

func (r *farmRig) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, r.url+path, rd)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// timedEvent is one /progress event and when the client read it.
type timedEvent struct {
	at time.Time
	farm.ProgressEvent
}

// follower reads the coordinator's /progress stream for the whole window.
type follower struct {
	mu     sync.Mutex
	events []timedEvent
	queued int
	leased map[string]bool
	kick   chan struct{} // signalled (never blocking) on every lease event

	cancel context.CancelFunc
	done   chan struct{}
}

// follow subscribes to /progress; it returns once the subscription is
// live, so no event of a later submission can be missed for lack of it.
func follow(r *farmRig) (*follower, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/progress", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	f := &follower{leased: make(map[string]bool), kick: make(chan struct{}, 1), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			var ev farm.ProgressEvent
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				f.add(timedEvent{time.Now(), ev})
			}
		}
	}()
	return f, nil
}

func (f *follower) add(ev timedEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.events = append(f.events, ev)
	switch ev.Type {
	case "queued":
		f.queued++
	case "lease":
		if !f.leased[ev.Key] {
			f.leased[ev.Key] = true
			select {
			case f.kick <- struct{}{}:
			default:
			}
		}
	}
}

// pending is the number of submitted cells not yet leased.
func (f *follower) pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queued - len(f.leased)
}

func (f *follower) stop() []timedEvent {
	f.cancel()
	<-f.done
	return f.events
}

// cellTiming is one farm cell's life on /progress.
type cellTiming struct {
	queued, lease, done time.Time // lease is the one that led to done
}

// progressCounts are the farm's event counters over a window.
type progressCounts struct {
	checkpoints, requeues, dropped int
}

// pairProgress pairs each submitted cell's queued, lease and done events.
// A cell missing any of the three — the stream drops events for a slow
// reader — counts as dropped and gets no timing.
func pairProgress(events []timedEvent, keys []string) (map[string]cellTiming, progressCounts) {
	var pc progressCounts
	partial := make(map[string]*cellTiming)
	at := func(key string) *cellTiming {
		t := partial[key]
		if t == nil {
			t = &cellTiming{}
			partial[key] = t
		}
		return t
	}
	for _, ev := range events {
		switch ev.Type {
		case "queued":
			at(ev.Key).queued = ev.at
		case "lease":
			at(ev.Key).lease = ev.at
		case "done":
			if t := at(ev.Key); t.done.IsZero() {
				t.done = ev.at
			}
		case "checkpoint":
			pc.checkpoints++
		case "requeue":
			pc.requeues++
		}
	}
	out := make(map[string]cellTiming, len(keys))
	for _, k := range keys {
		t := partial[k]
		if t == nil || t.queued.IsZero() || t.lease.IsZero() || t.done.IsZero() || t.lease.After(t.done) {
			pc.dropped++
			continue
		}
		out[k] = *t
	}
	return out, pc
}

// farmWindow is one measured farm sweep.
type farmWindow struct {
	outs    []cellOutcome
	cells   []farm.Cell // every submitted cell, in submission order
	keys    []string    // their content addresses
	batches [][]cellSpec
	window  float64
	counts  progressCounts
	queueMS []float64
	results map[string]*caba.Result
}

// farmChunk is the most cells the farm client submits in one /sweep, so
// that the queue runs dry often enough for quiet points.
const farmChunk = 8

// runFarmWindow is the farm's closed loop: one client submits the passes
// in /sweeps of at most farmChunk cells, follows /progress, submits the
// next while the queue still holds a few unleased cells (so workers never
// find it empty), and after the last long-polls /status until the farm
// drains. It makes a quiet point on clock first and, once every
// quietEvery, lets the farm drain before its next /sweep and makes
// another. The window runs from the first submission to the drained
// status.
func (w *workload) runFarmWindow(rig *farmRig, passes [][]cellSpec, clock *refClock) (*farmWindow, error) {
	f, err := follow(rig)
	if err != nil {
		return nil, fmt.Errorf("follow /progress: %w", err)
	}
	fw := &farmWindow{}
	lastQuiet := clock.quiet()
	origin := time.Now()
	submit := func(batch []cellSpec) error {
		req := farm.SweepRequest{Client: "bench"}
		for _, c := range batch {
			cell := farm.Cell{App: c.App, Seed: c.Seed, Config: w.config(), Design: c.Design}
			key, err := cell.Key()
			if err != nil {
				return err
			}
			req.Cells = append(req.Cells, cell)
			fw.cells = append(fw.cells, cell)
			fw.keys = append(fw.keys, farm.KeyString(key))
		}
		fw.batches = append(fw.batches, batch)
		var resp farm.SweepResponse
		if err := rig.call(http.MethodPost, "/sweep", &req, &resp); err != nil {
			return err
		}
		if resp.Accepted != len(batch) {
			return fmt.Errorf("sweep accepted %d of %d cells (%d cached, %d known)", resp.Accepted, len(batch), resp.CacheHits, resp.Known)
		}
		return nil
	}
	var batches [][]cellSpec
	for _, p := range passes {
		for len(p) > 0 {
			n := min(len(p), farmChunk)
			batches, p = append(batches, p[:n]), p[n:]
		}
	}
	err = func() error {
		for _, batch := range batches {
			if time.Since(lastQuiet) >= quietEvery {
				if err := waitDrained(rig); err != nil {
					return err
				}
				lastQuiet = clock.quiet()
			}
			if err := submit(batch); err != nil {
				return err
			}
			// The stream's count is the fast path; /status is the
			// authority when a dropped lease event stalls it.
		wait:
			for f.pending() > w.executors {
				select {
				case <-f.kick:
				case <-time.After(250 * time.Millisecond):
					var st farm.StatusResponse
					if err := rig.call(http.MethodGet, "/status?results=0", nil, &st); err != nil {
						return err
					}
					if st.Pending <= w.executors {
						break wait
					}
				}
			}
		}
		return nil
	}()
	if err == nil {
		err = waitDrained(rig)
	}
	fw.window = time.Since(origin).Seconds()
	events := f.stop()
	if err != nil {
		return nil, err
	}
	var st farm.StatusResponse
	if err := rig.call(http.MethodGet, "/status", nil, &st); err != nil {
		return nil, err
	}
	fw.results = st.Results
	var timing map[string]cellTiming
	timing, fw.counts = pairProgress(events, fw.keys)
	failed := make(map[string]string)
	for _, fl := range st.Failures {
		failed[fl.Key] = fl.Error
	}
	i := 0
	for _, batch := range fw.batches {
		for _, c := range batch {
			key := fw.keys[i]
			i++
			o := cellOutcome{spec: c, res: st.Results[key]}
			if msg, ok := failed[key]; ok {
				o.err = fmt.Errorf("farm: %s", msg)
			} else if o.res == nil {
				o.err = fmt.Errorf("farm: no result for cell %s", key)
			}
			if t, ok := timing[key]; ok {
				o.start, o.end = t.lease.Sub(origin).Seconds(), t.done.Sub(origin).Seconds()
				fw.queueMS = append(fw.queueMS, ms(t.lease.Sub(t.queued)))
			} else {
				o.untimed = true // counted in farm.events_dropped
			}
			fw.outs = append(fw.outs, o)
		}
	}
	return fw, nil
}

// waitDrained long-polls /status until every submitted cell is terminal.
func waitDrained(rig *farmRig) error {
	deadline := time.Now().Add(150 * time.Second)
	for time.Now().Before(deadline) {
		var st farm.StatusResponse
		if err := rig.call(http.MethodGet, "/status?results=0&wait_ms=2000", nil, &st); err != nil {
			return err
		}
		if st.Drained {
			return nil
		}
	}
	return fmt.Errorf("farm did not drain within 150 s")
}

// farmRestart reopens a coordinator over the durable state a finished
// window left in dir (timed), resubmits every cell of the window (timed)
// and checks that each one is a cache hit whose stored result equals the
// window's.
func farmRestart(dir string, fw *farmWindow) (restartMS, resubmitMS, hitFrac float64, err error) {
	start := time.Now()
	rig, err := startFarm(dir, 0, nil)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("reopen: %w", err)
	}
	restartMS = ms(time.Since(start))
	defer rig.stop()
	var resp farm.SweepResponse
	start = time.Now()
	if err := rig.call(http.MethodPost, "/sweep", &farm.SweepRequest{Client: "bench", Cells: fw.cells}, &resp); err != nil {
		return restartMS, 0, 0, fmt.Errorf("resubmit: %w", err)
	}
	resubmitMS = ms(time.Since(start))
	hitFrac = float64(resp.CacheHits) / float64(max(len(fw.cells), 1))
	var st farm.StatusResponse
	if err := rig.call(http.MethodGet, "/status", nil, &st); err != nil {
		return restartMS, resubmitMS, hitFrac, err
	}
	for key, want := range fw.results {
		got := st.Results[key]
		if got == nil {
			return restartMS, resubmitMS, hitFrac, fmt.Errorf("cell %s missing after restart", key)
		}
		if d := got.Stats.Diff(want.Stats); len(d) > 0 {
			return restartMS, resubmitMS, hitFrac, fmt.Errorf("cell %s changed across restart: %v", key, d[0])
		}
	}
	if resp.CacheHits != len(fw.cells) {
		return restartMS, resubmitMS, hitFrac, fmt.Errorf("%d of %d resubmitted cells were cache hits", resp.CacheHits, len(fw.cells))
	}
	return restartMS, resubmitMS, hitFrac, nil
}

// snapProbe is one snapshot-codec measurement.
type snapProbe struct {
	saveMS, loadMS, blobMB float64
	lines                  []probeLine
	alg                    compress.AlgID
}

// snapshotProbe checkpoints cell c, which runs cycles cycles, the way a
// farm worker does (caba.RunResumable) but at mid-run, so that every
// probed cell yields a blob whatever the farm cadence; restores that blob
// into a freshly prepared simulator (LoadState, timed), saves the restored
// machine again (SaveState, timed) and resumes it to completion. The
// resumed result must equal the uninterrupted one.
func (w *workload) snapshotProbe(c cellSpec, cycles uint64) (p snapProbe, err error) {
	cfg := w.config()
	cfg.SMWorkers = 1
	cfg.CheckpointEvery = max(cycles/2, 1)
	var first []byte
	whole, _, err := caba.RunResumable(context.Background(), cfg, c.Design, c.App, c.Seed, nil, func(_ uint64, blob []byte) error {
		if first == nil {
			first = append([]byte(nil), blob...)
		}
		return nil
	})
	if err != nil {
		return p, err
	}
	if first == nil {
		return p, fmt.Errorf("no checkpoint taken at cycle %d of %d", cfg.CheckpointEvery, cycles)
	}
	pr, err := prepare(cfg, c, nil, 0)
	if err != nil {
		return p, err
	}
	start := time.Now()
	if err := pr.sim.LoadState(first); err != nil {
		return p, fmt.Errorf("LoadState: %w", err)
	}
	p.loadMS = ms(time.Since(start))
	start = time.Now()
	blob, err := pr.sim.SaveState()
	if err != nil {
		return p, fmt.Errorf("SaveState: %w", err)
	}
	p.saveMS = ms(time.Since(start))
	p.blobMB = float64(len(blob)) / (1 << 20)
	if err := pr.sim.Run(pr.inst.MaxCycles()); err != nil {
		return p, fmt.Errorf("resumed run: %w", err)
	}
	pr.finish()
	if d := pr.sim.S.Diff(whole.Stats); len(d) > 0 {
		return p, fmt.Errorf("resumed run differs from uninterrupted: %v", d[0])
	}
	p.lines, p.alg = pr.captureLines(), pr.sim.Dom.Alg
	return p, nil
}
