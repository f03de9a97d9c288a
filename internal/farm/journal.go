package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The durable journal is an append-only JSONL event log under the
// coordinator's Dir. Two line kinds exist:
//
//   - acceptance (Cell set): a cell entered the queue, with its
//     submitting client for admission attribution;
//   - victim (Victim set): the named worker was presumed killed by the
//     cell (lease expiry or resource-budget abort) — replaying these
//     makes the poison-cell circuit breaker durable across restarts.
//
// Compaction rewrites the log as exactly one line per known cell
// (victims folded into the Victims field for live cells, dropped for
// terminal ones whose outcome lives in the store), so restart replay is
// O(cells), not O(event history). The rewrite goes through a temp file
// plus rename; a stale temp left by a crash mid-compaction is removed
// on open, leaving the original journal authoritative.
const (
	journalName    = "journal.jsonl"
	compactTmpName = "journal.compact.tmp"
)

// journalLine is one event in the durable journal (see the package
// comment above for the two line kinds and the compacted form).
type journalLine struct {
	Key string `json:"key"`
	// Cell marks an acceptance line. Pre-admission-control journals used
	// the same shape (minus Client), so old logs replay unchanged.
	Cell *Cell `json:"cell,omitempty"`
	// Client names the submitter on acceptance lines.
	Client string `json:"client,omitempty"`
	// Victim marks an incremental poison-breaker event.
	Victim string `json:"victim,omitempty"`
	// Victims is the folded victim set on compacted acceptance lines.
	Victims []string `json:"victims,omitempty"`
}

// openJournal replays the durable journal into the queue, truncates any
// torn tail, and leaves c.journal open for appending. Called once from
// NewCoordinator before the HTTP surface or janitor exist, so no lock is
// needed.
func (c *Coordinator) openJournal() error {
	// Torn-compaction recovery: a crash after writing (some of) the
	// compacted temp file but before the rename leaves the original
	// journal authoritative and the temp file garbage.
	os.Remove(filepath.Join(c.cfg.Dir, compactTmpName))

	path := filepath.Join(c.cfg.Dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("farm: journal: %w", err)
	}
	goodLen := int64(0)
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var line journalLine
		if err := dec.Decode(&line); err != nil {
			// io.EOF is the clean end; anything else is a torn trailing
			// append, replayed up to the last intact line.
			break
		}
		goodLen = dec.InputOffset()
		if goodLen < int64(len(raw)) && raw[goodLen] == '\n' {
			goodLen++ // keep the line terminator inside the clean prefix
		}
		c.journalLines++
		c.replayLine(line)
	}
	if goodLen < int64(len(raw)) {
		// Truncate the torn tail now: the handle below appends at the
		// file end, and bytes after a torn line would be unreachable to
		// every future replay (the decoder stops at the tear).
		if err := os.Truncate(path, goodLen); err != nil {
			return fmt.Errorf("farm: journal truncate: %w", err)
		}
		c.logf("farm: journal had a torn tail; truncated to %d bytes", goodLen)
	}
	c.journal, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("farm: journal: %w", err)
	}
	return nil
}

// replayLine applies one journal event to the in-memory queue during
// open (no lock held; nothing else is running yet).
func (c *Coordinator) replayLine(line journalLine) {
	key, err := ParseKey(line.Key)
	if err != nil {
		return
	}
	if line.Cell == nil {
		// Victim event for an already-replayed cell.
		if st := c.cells[key]; st != nil && line.Victim != "" {
			st.addVictim(line.Victim)
		}
		return
	}
	if _, ok := c.cells[key]; ok {
		return
	}
	st := &cellState{cell: *line.Cell, key: key, client: line.Client}
	for _, v := range line.Victims {
		st.addVictim(v)
	}
	// The durable store is the outcome authority: a sealed poison,
	// result or failure record replayed from disk means the cell is
	// terminal and served as a cache hit, never re-leased.
	if msg, victims, attempts, ok := c.store.GetPoison(key); ok {
		st.status = cellFailed
		st.poison = true
		st.errMsg = msg
		st.failures = attempts
		st.victims = victims
		st.cacheHit = true
	} else if res, _ := c.store.GetResult(key); res != nil {
		st.status = cellDone
		st.result = res
		st.cacheHit = true
	} else if msg, wedge, attempts, ok := c.store.GetFailure(key); ok {
		st.status = cellFailed
		st.errMsg = msg
		st.wedge = wedge
		st.failures = attempts
		st.cacheHit = true
	}
	c.addCellLocked(st)
}

// appendJournalLocked appends one event line; the caller holds c.mu and
// is responsible for syncing at its durability boundary.
func (c *Coordinator) appendJournalLocked(line journalLine) error {
	if err := json.NewEncoder(c.journal).Encode(line); err != nil {
		return err
	}
	c.journalLines++
	return nil
}

// maybeCompact compacts the journal once enough dead lines (events
// superseded by the one-line-per-cell compact form) have accumulated.
// Called from the janitor and once at startup.
func (c *Coordinator) maybeCompact() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journalLines-len(c.order) < c.cfg.compactMinLines() {
		return
	}
	if err := c.compactLocked(); err != nil {
		c.logf("farm: journal compaction failed (keeping full log): %v", err)
	}
}

// compactLocked rewrites the journal as one acceptance line per known
// cell, folding live cells' victim sets in and dropping events whose
// outcome the store already records. The temp-file + fsync + rename
// sequence makes the swap atomic: a crash on either side of the rename
// leaves exactly one intact journal. Caller holds c.mu.
func (c *Coordinator) compactLocked() error {
	tmp := filepath.Join(c.cfg.Dir, compactTmpName)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	lines := 0
	for _, key := range c.order {
		st := c.cells[key]
		line := journalLine{Key: KeyString(key), Cell: &st.cell, Client: st.client}
		if st.status == cellPending || st.status == cellLeased {
			line.Victims = st.victims
		}
		if err == nil {
			err = enc.Encode(line)
		}
		lines++
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	path := filepath.Join(c.cfg.Dir, journalName)
	c.journal.Close()
	if err := os.Rename(tmp, path); err != nil {
		// The old journal is still in place; reopen it and carry on with
		// the uncompacted log.
		c.journal, _ = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		return err
	}
	j, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("farm: reopening compacted journal: %w", err)
	}
	c.journal = j
	c.journalLines = lines
	c.compactions.Add(1)
	c.publish(ProgressEvent{Type: "compact"})
	c.logf("farm: journal compacted to %d lines", lines)
	return nil
}
