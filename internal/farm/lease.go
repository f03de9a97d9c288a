package farm

import (
	"strconv"
	"sync"
	"time"
)

// Lease is one live cell assignment: a worker holds it while simulating
// and must extend it by heartbeating before the deadline. A lease whose
// deadline passes is harvested by the coordinator and its cell re-queued;
// any late heartbeat, checkpoint upload or report quoting the stale token
// is rejected, which is what makes a hung or partitioned worker safe — it
// can finish its zombie run, but it can no longer mutate sweep state.
type Lease struct {
	// Token is the opaque assignment id quoted on every subsequent call.
	Token string
	// Key is the leased cell's content address.
	Key uint64
	// Cell is the leased work item.
	Cell Cell
	// Worker names the holder.
	Worker string
	// Attempt is 1 for the cell's first execution, counting retries up.
	Attempt int
	// Deadline is when the lease expires unless extended.
	Deadline time.Time
}

// leaseTable tracks live leases. It is a pure bookkeeping structure —
// classification and re-queuing policy live in the Coordinator — and all
// methods are safe for concurrent use.
type leaseTable struct {
	mu     sync.Mutex
	seq    uint64
	leases map[string]*Lease
}

func newLeaseTable() *leaseTable {
	return &leaseTable{leases: make(map[string]*Lease)}
}

// grant creates a lease for cell held by worker until now+ttl.
func (t *leaseTable) grant(cell Cell, key uint64, worker string, attempt int, ttl time.Duration, now time.Time) *Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	l := &Lease{
		Token:    "l" + strconv.FormatUint(t.seq, 10) + "-" + KeyString(key),
		Key:      key,
		Cell:     cell,
		Worker:   worker,
		Attempt:  attempt,
		Deadline: now.Add(ttl),
	}
	t.leases[l.Token] = l
	return l
}

// extend pushes the lease's deadline to now+ttl. It reports false for an
// unknown (harvested or already settled) token and for a lease past its
// deadline, which stays for harvest to collect.
func (t *leaseTable) extend(token string, ttl time.Duration, now time.Time) (*Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[token]
	if !ok || now.After(l.Deadline) {
		return nil, false
	}
	l.Deadline = now.Add(ttl)
	return l, true
}

// lookup returns the live lease for token, if any.
func (t *leaseTable) lookup(token string) (*Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[token]
	return l, ok
}

// settle removes the lease (its cell reached a report) and returns it.
func (t *leaseTable) settle(token string) (*Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[token]
	if ok {
		delete(t.leases, token)
	}
	return l, ok
}

// harvest removes and returns every lease whose deadline has passed.
func (t *leaseTable) harvest(now time.Time) []*Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	var dead []*Lease
	for tok, l := range t.leases {
		if now.After(l.Deadline) {
			dead = append(dead, l)
			delete(t.leases, tok)
		}
	}
	return dead
}

// count returns the number of live leases.
func (t *leaseTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.leases)
}
