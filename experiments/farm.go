package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/caba-sim/caba/internal/farm"
)

// farmSweep dispatches cells to the farm coordinator at o.FarmURL and
// keeps each completed result in memo and store, exactly as a local run
// would. The coordinator owns execution policy (leases, retries, the
// wedge fail-fast, checkpoint resume); this client only submits, polls
// and merges. Degradation mirrors the in-process sweep: completed cells
// are kept even when others failed, failures come back as one joined
// error naming each broken cell, and a cancelled Context stops the wait
// and keeps whatever has finished with the cancellation joined in.
func (o *Options) farmSweep(cells []sweepCell, memo *resultMap, store *farm.Store) error {
	if len(cells) == 0 {
		return nil
	}
	ctx := o.ctx()
	base := strings.TrimRight(o.FarmURL, "/")
	req := farm.SweepRequest{Client: o.farmClientName()}
	for _, c := range cells {
		req.Cells = append(req.Cells, c.cell)
	}

	var sw farm.SweepResponse
	if err := o.farmCall(ctx, http.MethodPost, base+"/sweep", &req, &sw); err != nil {
		return fmt.Errorf("experiments: farm submit: %w", err)
	}
	fmt.Fprintf(o.out(), "farm sweep: %d submitted (%d new, %d cached, %d already known) to %s\n",
		len(req.Cells), sw.Accepted, sw.CacheHits, sw.Known, base)

	// Poll with server-side long-polling until the sweep drains or the
	// caller cancels. Results are fetched only on the final call — status
	// polls stay cheap while cells are in flight.
	var errs []error
	for {
		var st farm.StatusResponse
		err := o.farmCall(ctx, http.MethodGet, base+"/status?results=0&wait_ms=2000", nil, &st)
		if err != nil {
			if ctx.Err() != nil {
				errs = append(errs, fmt.Errorf("experiments: farm sweep cancelled: %w", context.Cause(ctx)))
				break
			}
			return fmt.Errorf("experiments: farm status: %w", err)
		}
		if st.Drained {
			break
		}
		if ctx.Err() != nil {
			errs = append(errs, fmt.Errorf("experiments: farm sweep cancelled: %w", context.Cause(ctx)))
			break
		}
		if o.farmShed {
			// The coordinator shed our long-poll to protect itself under
			// load: the poll came back immediately, so pace the next one
			// instead of turning the shedding into a tight request loop.
			sleepJitter(ctx, time.Second)
		}
	}

	// Final collection: whatever is terminal at this point (everything,
	// unless cancelled). A short context-free timeout keeps the last
	// fetch possible even after cancellation — partial results are the
	// whole point of degrading gracefully.
	fetchCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var st farm.StatusResponse
	if err := o.farmCall(fetchCtx, http.MethodGet, base+"/status", nil, &st); err != nil {
		errs = append(errs, fmt.Errorf("experiments: farm collect: %w", err))
		return errors.Join(errs...)
	}
	failed := make(map[string]farm.Failure, len(st.Failures))
	for _, f := range st.Failures {
		failed[f.Key] = f
	}
	// The status lists every client's cells; only this sweep's are read.
	for _, c := range cells {
		ks := farm.KeyString(c.id)
		if res := st.Results[ks]; res != nil {
			if err := keep(memo, store, c, res); err != nil {
				errs = append(errs, err)
			}
			continue
		}
		f, ok := failed[ks]
		if !ok {
			continue
		}
		kind := "transient"
		switch {
		case f.Poison:
			kind = "poison-quarantined"
		case f.Wedge:
			kind = "deterministic wedge"
		}
		errs = append(errs, fmt.Errorf("%s: farm cell failed (%s after %d attempt(s)): %s", c.key, kind, f.Attempts, f.Error))
	}
	return errors.Join(errs...)
}

// farmClientName identifies this client to the coordinator's admission
// control (per-client quotas, queue attribution).
func (o *Options) farmClientName() string {
	host, _ := os.Hostname()
	if host == "" {
		host = "experiments"
	}
	return "experiments@" + host
}

// farmCall performs one JSON request against the coordinator, speaking
// its overload protocol. Failures are not all equal:
//
//   - A transport error (connection refused or reset) means the
//     coordinator is down or restarting: retried on a long doubling
//     schedule, capped, while the context lives — a restarted farmd
//     replays its journal and carries on, so patience wins.
//   - 429 (admission control) and 503 (draining/saturated) mean the
//     coordinator is alive but protecting itself: retried after its
//     Retry-After hint plus jitter, indefinitely under the context —
//     submission is idempotent by content address, so replaying the
//     identical request is always safe.
//   - Any other 5xx is an internal fault: retried a few times on a short
//     backoff, then surfaced.
//   - 4xx is the caller's bug: surfaced immediately.
//
// A degraded/saturated X-Farm-Health response header is surfaced to the
// user once per sweep as a warning.
func (o *Options) farmCall(ctx context.Context, method, url string, in, out any) error {
	var raw []byte
	if in != nil {
		var err error
		if raw, err = json.Marshal(in); err != nil {
			return err
		}
	}
	connWait := 500 * time.Millisecond
	connTries, serverTries := 0, 0
	for {
		var body io.Reader
		if raw != nil {
			body = strings.NewReader(string(raw))
		}
		req, err := http.NewRequestWithContext(ctx, method, url, body)
		if err != nil {
			return err
		}
		if raw != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			if connTries++; connTries > 20 {
				return fmt.Errorf("experiments: coordinator unreachable after %d attempts: %w", connTries, err)
			}
			if errors.Is(err, syscall.ECONNREFUSED) {
				fmt.Fprintf(o.out(), "farm: coordinator refused connection (restarting?); retrying in %s\n", connWait)
			}
			if !sleepJitter(ctx, connWait) {
				return err
			}
			if connWait *= 2; connWait > 10*time.Second {
				connWait = 10 * time.Second
			}
			continue
		}
		connTries, connWait = 0, 500*time.Millisecond
		if h := resp.Header.Get("X-Farm-Health"); h != "" && h != "ok" && !o.farmDegradedWarned {
			o.farmDegradedWarned = true
			fmt.Fprintf(o.out(), "farm: warning: coordinator reports %q — expect slower admission and shed long-polls\n", h)
		}
		o.farmShed = resp.Header.Get("X-Farm-Shed") != ""
		switch {
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			wait := retryAfterHint(resp, 2*time.Second)
			fmt.Fprintf(o.out(), "farm: coordinator is busy (%s: %s); retrying in ~%s\n",
				resp.Status, strings.TrimSpace(string(msg)), wait)
			if !sleepJitter(ctx, wait) {
				return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
			}
			continue
		case resp.StatusCode >= 500:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if serverTries++; serverTries > 4 {
				return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
			}
			if !sleepJitter(ctx, 250*time.Millisecond<<serverTries) {
				return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
			}
			continue
		case resp.StatusCode >= 300:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
		}
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		return err
	}
}

// retryAfterHint reads a Retry-After header in seconds, falling back to
// def when absent or malformed.
func retryAfterHint(resp *http.Response, def time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return def
}

// sleepJitter sleeps d scaled by a random factor in [0.5, 1.5) — so a
// fleet of clients told "Retry-After: 2" does not re-land in lockstep —
// unless ctx ends first; it reports whether the sleep completed. The
// randomness affects request timing only, never simulated results.
func sleepJitter(ctx context.Context, d time.Duration) bool {
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
