package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/snapshot"
)

// Store is the coordinator's durable, content-addressed state: completed
// results keyed by cell content hash, terminal failure and poison
// records, plus the latest mid-run checkpoint blob per cell. Every result entry is sealed in the snapshot container —
// magic, version, the cell key as the binding hash, and a CRC over the
// JSON payload — so a read always verifies integrity and address binding
// before trusting the bytes. An entry that fails verification (torn
// write, bit rot, a file renamed to the wrong address) is quarantined:
// moved aside with a ".quarantine" suffix and treated as absent, so the
// cell re-runs instead of serving a corrupt result.
//
// Checkpoint blobs are stored as uploaded (they are already sealed,
// CRC-checked containers); PutBlob verifies the container before
// accepting, GetBlob re-verifies before serving and quarantines on
// failure.
type Store struct {
	dir string
	// mu serializes the renames that publish, quarantine and delete
	// entries. Reads and the write-and-fsync phase of a put never take
	// it, so no read waits behind another entry's fsync.
	mu sync.Mutex
	// minFree is the disk-headroom floor for checkpoint blob uploads
	// (0 = no preflight); set by the coordinator from its MinDiskFree.
	minFree int64
	// slowWrite, when non-nil, runs in every durable write's unlocked
	// write phase, where disk latency falls (the soak harness injects
	// latency here). Nil in production.
	slowWrite func()
	// quarantined counts entries set aside since open (observability).
	quarantined atomic.Uint64
}

// resSchema is the minimal shape check applied to a decoded result: a
// completed simulation always has an application label and ran at least
// one cycle. It guards against a valid JSON payload of the wrong type
// landing at a result address.
func resSchema(res *caba.Result) error {
	if res == nil || res.App == "" || res.Design == "" || res.Cycles == 0 {
		return fmt.Errorf("farm: result fails schema check (app=%q design=%q cycles=%d)",
			resApp(res), resDesign(res), resCycles(res))
	}
	return nil
}

func resApp(r *caba.Result) string {
	if r == nil {
		return ""
	}
	return r.App
}

func resDesign(r *caba.Result) string {
	if r == nil {
		return ""
	}
	return r.Design
}

func resCycles(r *caba.Result) uint64 {
	if r == nil {
		return 0
	}
	return r.Cycles
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	for _, sub := range []string{resultsDir, blobsDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("farm: store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

const (
	resultsDir = "results"
	blobsDir   = "blobs"
)

// KeyString renders a cell key in its canonical %016x wire form.
func KeyString(key uint64) string { return fmt.Sprintf("%016x", key) }

// ParseKey parses the canonical %016x wire form back into a key.
func ParseKey(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("farm: malformed cell key %q", s)
	}
	return v, nil
}

func (s *Store) resultPath(key uint64) string {
	return filepath.Join(s.dir, resultsDir, KeyString(key)+".res")
}

// BlobPath returns the file that holds key's mid-run checkpoint blob.
// In-process sweeps run their cells through caba.RunCheckpointed at this
// path, so their snapshots and crash reports (BlobPath + ".crash") live
// in the same layout the coordinator serves.
func (s *Store) BlobPath(key uint64) string {
	return filepath.Join(s.dir, blobsDir, KeyString(key)+".ckpt")
}

// Quarantined returns the number of entries set aside since open.
func (s *Store) Quarantined() uint64 { return s.quarantined.Load() }

// quarantine moves a corrupt entry aside (never deletes: the bytes are
// evidence) and counts it. A collision on the quarantine name appends a
// numeric suffix so repeated corruption never silently overwrites. The
// caller read the entry without the lock, so a writer may have published
// a good one since: quarantine re-reads and re-verifies under s.mu, and
// moves the file only if check still rejects it.
func (s *Store) quarantine(path string, check func([]byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := os.ReadFile(path)
	if err != nil || check(raw) == nil {
		return
	}
	q := path + ".quarantine"
	for i := 1; ; i++ {
		if _, err := os.Stat(q); errors.Is(err, os.ErrNotExist) {
			break
		}
		q = path + ".quarantine." + strconv.Itoa(i)
	}
	if err := os.Rename(path, q); err == nil {
		s.quarantined.Add(1)
	}
}

// put durably stores data at path. The entry is written and fsynced to a
// temporary file of its own, so two writers of one key never share one,
// without holding s.mu: reads and other writes never wait behind this
// entry's fsync. s.mu covers only the rename that publishes it, which is
// atomic, so a crash mid-write can never leave a torn entry at the
// address.
func (s *Store) put(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	if s.slowWrite != nil {
		s.slowWrite()
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		s.mu.Lock()
		err = os.Rename(f.Name(), path)
		s.mu.Unlock()
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// get reads the entry at path and verifies and decodes it with open.
// found is false when the entry is absent or fails verification; a
// failing entry is quarantined. Reads take no lock: entries are published
// by rename, so a reader sees one whole file, old or new.
func get[T any](s *Store, path string, open func([]byte) (T, error)) (v T, found bool, err error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return v, false, nil
	}
	if err != nil {
		return v, false, err
	}
	if v, err = open(raw); err != nil {
		s.quarantine(path, func(raw []byte) error {
			_, err := open(raw)
			return err
		})
		return v, false, nil
	}
	return v, true, nil
}

// sealedJSON returns an open function for a sealed JSON entry at key:
// container CRC, address binding, JSON decode, then valid's shape check.
func sealedJSON[T any](key uint64, valid func(*T) error) func([]byte) (*T, error) {
	return func(raw []byte) (*T, error) {
		payload, err := snapshot.Open(raw, key)
		if err != nil {
			return nil, err
		}
		v := new(T)
		if err := json.Unmarshal(payload, v); err != nil {
			return nil, err
		}
		if err := valid(v); err != nil {
			return nil, err
		}
		return v, nil
	}
}

// PutResult seals and durably stores a verified result at its cell key.
func (s *Store) PutResult(key uint64, res *caba.Result) error {
	if err := resSchema(res); err != nil {
		return err
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("farm: store result: %w", err)
	}
	return s.put(s.resultPath(key), snapshot.Seal(key, payload))
}

// GetResult returns the stored result for key, or (nil, nil) when absent.
// The entry is verified on every read — container CRC, address binding,
// JSON decode, schema — and quarantined on any failure (the caller then
// sees it as absent and re-runs the cell).
func (s *Store) GetResult(key uint64) (*caba.Result, error) {
	res, _, err := get(s, s.resultPath(key), sealedJSON(key, resSchema))
	if err != nil {
		return nil, fmt.Errorf("farm: read result: %w", err)
	}
	return res, nil
}

// failRecord is the durable form of a terminal failure.
type failRecord struct {
	Error string `json:"error"`
	Wedge bool   `json:"wedge"`
	// Attempts is how many executions were charged before failing.
	Attempts int `json:"attempts"`
}

func (s *Store) failPath(key uint64) string {
	return filepath.Join(s.dir, resultsDir, KeyString(key)+".fail")
}

// errNoMessage rejects a failure or poison record without its error text.
var errNoMessage = errors.New("farm: record has no error message")

// PutFailure durably records a terminal failure at the cell's address, so
// a coordinator restart (or a later sweep over the same store) serves the
// known outcome instead of re-simulating. Deterministic wedges in
// particular replay identically on every attempt — re-running one is
// pure waste.
func (s *Store) PutFailure(key uint64, errMsg string, wedge bool, attempts int) error {
	payload, err := json.Marshal(failRecord{Error: errMsg, Wedge: wedge, Attempts: attempts})
	if err != nil {
		return fmt.Errorf("farm: store failure: %w", err)
	}
	return s.put(s.failPath(key), snapshot.Seal(key, payload))
}

// GetFailure returns the recorded terminal failure for key, or ok=false
// when absent. Corrupt entries are quarantined and read as absent (the
// cell then re-runs).
func (s *Store) GetFailure(key uint64) (errMsg string, wedge bool, attempts int, ok bool) {
	rec, ok, _ := get(s, s.failPath(key), sealedJSON(key, func(r *failRecord) error {
		if r.Error == "" {
			return errNoMessage
		}
		return nil
	}))
	if !ok {
		return "", false, 0, false
	}
	return rec.Error, rec.Wedge, rec.Attempts, true
}

// poisonRecord is the durable, sealed form of a poison-cell quarantine:
// the circuit breaker's diagnosis plus the distinct workers the cell is
// presumed to have killed.
type poisonRecord struct {
	Error   string   `json:"error"`
	Victims []string `json:"victims"`
	// Attempts is how many executions were charged before quarantine.
	Attempts int `json:"attempts"`
}

func (s *Store) poisonPath(key uint64) string {
	return filepath.Join(s.dir, resultsDir, KeyString(key)+".poison")
}

// PutPoison durably seals a poison-cell quarantine at the cell's
// address. Like a wedge record it is terminal — a coordinator restart or
// a later sweep over the same store serves the quarantine instead of
// leasing the cell out to kill more workers.
func (s *Store) PutPoison(key uint64, errMsg string, victims []string, attempts int) error {
	payload, err := json.Marshal(poisonRecord{Error: errMsg, Victims: victims, Attempts: attempts})
	if err != nil {
		return fmt.Errorf("farm: store poison record: %w", err)
	}
	return s.put(s.poisonPath(key), snapshot.Seal(key, payload))
}

// GetPoison returns the recorded quarantine for key, or ok=false when
// absent. Corrupt records are quarantined-aside and read as absent (the
// breaker then has to trip again, which is safe — just slower).
func (s *Store) GetPoison(key uint64) (errMsg string, victims []string, attempts int, ok bool) {
	rec, ok, _ := get(s, s.poisonPath(key), sealedJSON(key, func(r *poisonRecord) error {
		if r.Error == "" {
			return errNoMessage
		}
		return nil
	}))
	if !ok {
		return "", nil, 0, false
	}
	return rec.Error, rec.Victims, rec.Attempts, true
}

// errInsufficientStorage marks a write refused by the disk-space
// preflight; the HTTP layer maps it to 507 Insufficient Storage.
var errInsufficientStorage = errors.New("farm: store disk headroom below floor")

// PutBlob stores a cell's latest mid-run checkpoint blob, replacing any
// previous one. The blob must be a valid sealed snapshot container
// (magic, version, CRC) — corrupt uploads are rejected here so a torn
// network transfer can never poison the resume path. When the store has
// a disk-headroom floor, a preflight rejects the upload (keeping the
// previous good blob) rather than filling the disk: losing checkpoint
// granularity is recoverable, a full store volume is not.
func (s *Store) PutBlob(key uint64, blob []byte) error {
	if _, _, err := snapshot.Inspect(blob); err != nil {
		return fmt.Errorf("farm: checkpoint blob rejected: %w", err)
	}
	if s.minFree > 0 {
		if free := diskFree(s.dir); free >= 0 && free < s.minFree+2*int64(len(blob)) {
			return fmt.Errorf("%w: %d bytes free, need %d headroom",
				errInsufficientStorage, free, s.minFree+2*int64(len(blob)))
		}
	}
	return s.put(s.BlobPath(key), blob)
}

// GetBlob returns the cell's stored checkpoint blob, or (nil, nil) when
// absent. The container is re-verified on read and quarantined on
// corruption (the cell then resumes from cycle zero instead of failing).
func (s *Store) GetBlob(key uint64) ([]byte, error) {
	raw, _, err := get(s, s.BlobPath(key), func(raw []byte) ([]byte, error) {
		if _, _, err := snapshot.Inspect(raw); err != nil {
			return nil, err
		}
		return raw, nil
	})
	if err != nil {
		return nil, fmt.Errorf("farm: read blob: %w", err)
	}
	return raw, nil
}

// HasBlob reports whether a checkpoint blob is stored for key.
func (s *Store) HasBlob(key uint64) bool {
	_, err := os.Stat(s.BlobPath(key))
	return err == nil
}

// DeleteBlob drops the cell's checkpoint blob (after the cell completes;
// best effort).
func (s *Store) DeleteBlob(key uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	os.Remove(s.BlobPath(key))
}
