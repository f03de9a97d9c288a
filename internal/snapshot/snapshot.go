// Package snapshot is the versioned, checksummed serialization container
// and primitive codec for mid-run simulator checkpoints. The container
// carries a magic number, a format version, a configuration hash (so a
// blob is never restored into a differently-configured simulator) and a
// CRC32 over the payload; the Reader is bounds-checked on every primitive
// so truncated or bit-flipped blobs always surface a structured
// *FormatError and never panic or load silently-corrupt state.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
)

// Version is the current snapshot format version. Bump on any encoding
// change; Open rejects blobs from other versions.
const Version uint32 = 3

// magic identifies a snapshot blob ("CABASNAP").
const magic uint64 = 0x43414241534e4150

// FormatError describes why a blob could not be decoded. It is the only
// error type the loader returns for malformed input.
type FormatError struct {
	Off int // byte offset where decoding failed (-1 for container-level problems)
	Msg string
}

// Error implements error.
func (e *FormatError) Error() string {
	if e.Off < 0 {
		return fmt.Sprintf("snapshot: %s", e.Msg)
	}
	return fmt.Sprintf("snapshot: offset %d: %s", e.Off, e.Msg)
}

// errf builds a container-level FormatError.
func errf(format string, args ...any) *FormatError {
	return &FormatError{Off: -1, Msg: fmt.Sprintf(format, args...)}
}

// --- Writer ---

// Writer accumulates a snapshot payload. All integers are little-endian
// and fixed-width; lengths are u64 so the Reader can bound them.
type Writer struct {
	buf []byte
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Len appends a non-negative length.
func (w *Writer) Len(n int) { w.U64(uint64(n)) }

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.Len(len(b))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.buf = append(w.buf, s...)
}

// Payload returns the accumulated bytes.
func (w *Writer) Payload() []byte { return w.buf }

// --- Reader ---

// Reader decodes a payload with full bounds checking. The first failure
// latches into err; subsequent reads return zero values, so decode
// sequences need only check Err once (or at natural boundaries).
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// fail latches a decoding error at the current offset.
func (r *Reader) fail(msg string) {
	if r.err == nil {
		r.err = &FormatError{Off: r.off, Msg: msg}
	}
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// take consumes n bytes.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail(fmt.Sprintf("need %d bytes, have %d", n, len(r.buf)-r.off))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean; any value other than 0/1 is a format error.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid boolean")
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int, rejecting values that overflow the platform int.
func (r *Reader) Int() int {
	v := r.I64()
	if int64(int(v)) != v {
		r.fail("int overflow")
		return 0
	}
	return int(v)
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads a length and validates it against max and the remaining
// bytes (a length can never legitimately exceed what is left to read, so
// corrupt huge lengths fail here instead of triggering giant
// allocations).
func (r *Reader) Len(max int) int {
	v := r.U64()
	if r.err != nil {
		return 0
	}
	if v > uint64(max) || v > uint64(r.Remaining()) {
		r.fail(fmt.Sprintf("length %d out of bounds (max %d, %d bytes left)", v, max, r.Remaining()))
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string of at most max bytes. The
// returned slice aliases the blob.
func (r *Reader) Bytes(max int) []byte {
	n := r.Len(max)
	if r.err != nil {
		return nil
	}
	return r.take(n)
}

// String reads a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string { return string(r.Bytes(max)) }

// --- Container ---

// container layout:
//
//	u64 magic | u32 version | u64 configHash | u64 payloadLen |
//	payload bytes | u32 CRC32-IEEE(payload)

const headerSize = 8 + 4 + 8 + 8

// Seal wraps a payload into a self-describing blob bound to configHash.
func Seal(configHash uint64, payload []byte) []byte {
	out := make([]byte, 0, headerSize+len(payload)+4)
	out = binary.LittleEndian.AppendUint64(out, magic)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, configHash)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return out
}

// Open validates a blob's container (magic, version, configuration hash,
// length, checksum) and returns its payload. All failures are
// *FormatError.
func Open(blob []byte, configHash uint64) ([]byte, error) {
	h, payload, err := Inspect(blob)
	if err != nil {
		return nil, err
	}
	if h != configHash {
		return nil, errf("configuration hash mismatch: blob %#x, simulator %#x", h, configHash)
	}
	return payload, nil
}

// Inspect validates a blob's container integrity (magic, version, length,
// checksum) without binding it to a particular configuration, and returns
// the embedded configuration hash alongside the payload. It exists for
// blob custodians — stores that hold checkpoint blobs on behalf of
// simulators they never instantiate — which must reject torn or
// bit-flipped uploads yet cannot know the hash the eventual restorer will
// check. All failures are *FormatError.
func Inspect(blob []byte) (configHash uint64, payload []byte, err error) {
	if len(blob) < headerSize+4 {
		return 0, nil, errf("blob too short: %d bytes", len(blob))
	}
	if m := binary.LittleEndian.Uint64(blob); m != magic {
		return 0, nil, errf("bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(blob[8:]); v != Version {
		return 0, nil, errf("version %d not supported (want %d)", v, Version)
	}
	configHash = binary.LittleEndian.Uint64(blob[12:])
	n := binary.LittleEndian.Uint64(blob[20:])
	if n != uint64(len(blob)-headerSize-4) {
		return 0, nil, errf("payload length %d does not match blob size %d", n, len(blob))
	}
	payload = blob[headerSize : headerSize+int(n)]
	want := binary.LittleEndian.Uint32(blob[headerSize+int(n):])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, nil, errf("payload checksum mismatch: %#x != %#x", got, want)
	}
	return configHash, payload, nil
}

// WriteFileAtomic persists data so that a crash mid-write can never leave
// a torn file at path: it writes a sibling temp file, fsyncs it and
// renames it over path. Checkpoint blobs, result-store entries and run
// output files all go through it.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// --- Plain-struct codec ---

// maxPlainLen bounds string/slice lengths in plain-codec decoding.
const maxPlainLen = 1 << 20

// EncodePlain serializes a value composed of plain data: booleans,
// integers, floats, strings, arrays, slices and structs of those (all
// fields exported). Pointers, maps, interfaces and channels are rejected
// — state containing them needs a hand-written codec.
func EncodePlain(w *Writer, v any) error {
	return encodeValue(w, reflect.ValueOf(v))
}

func encodeValue(w *Writer, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		w.Bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.I64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		w.U64(v.Uint())
	case reflect.Float64, reflect.Float32:
		w.F64(v.Float())
	case reflect.String:
		w.String(v.String())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := encodeValue(w, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Slice:
		w.Len(v.Len())
		for i := 0; i < v.Len(); i++ {
			if err := encodeValue(w, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				return errf("cannot encode unexported field %s.%s", t.Name(), t.Field(i).Name)
			}
			if err := encodeValue(w, v.Field(i)); err != nil {
				return err
			}
		}
	default:
		return errf("cannot encode kind %s", v.Kind())
	}
	return nil
}

// DecodePlain fills *out (a pointer to a plain-data value) from the
// reader, mirroring EncodePlain.
func DecodePlain(r *Reader, out any) error {
	v := reflect.ValueOf(out)
	if v.Kind() != reflect.Ptr || v.IsNil() {
		return errf("DecodePlain needs a non-nil pointer")
	}
	if err := decodeValue(r, v.Elem()); err != nil {
		return err
	}
	return r.Err()
}

func decodeValue(r *Reader, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := r.I64()
		if v.OverflowInt(n) {
			return errf("value %d overflows %s", n, v.Type())
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n := r.U64()
		if v.OverflowUint(n) {
			return errf("value %d overflows %s", n, v.Type())
		}
		v.SetUint(n)
	case reflect.Float64, reflect.Float32:
		v.SetFloat(r.F64())
	case reflect.String:
		v.SetString(r.String(maxPlainLen))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := decodeValue(r, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Slice:
		n := r.Len(maxPlainLen)
		if r.Err() != nil {
			return r.Err()
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			if err := decodeValue(r, s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				return errf("cannot decode unexported field %s.%s", t.Name(), t.Field(i).Name)
			}
			if err := decodeValue(r, v.Field(i)); err != nil {
				return err
			}
		}
	default:
		return errf("cannot decode kind %s", v.Kind())
	}
	return r.Err()
}

// HashPlain returns an FNV-1a 64-bit hash of a plain value's encoding,
// used to bind snapshots to the configuration that produced them.
func HashPlain(vs ...any) (uint64, error) {
	var w Writer
	for _, v := range vs {
		if err := EncodePlain(&w, v); err != nil {
			return 0, err
		}
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range w.Payload() {
		h ^= uint64(b)
		h *= prime64
	}
	return h, nil
}
