// Package snapshot is the versioned, checksummed serialization container
// and primitive codec for mid-run simulator checkpoints. The container
// carries a magic number, a format version, a configuration hash (so a
// blob is never restored into a differently-configured simulator) and a
// CRC32 over the payload. One Codec both encodes and decodes a payload,
// so each type's layout is written once; decoding is bounds-checked on
// every primitive, so truncated or bit-flipped blobs always surface a
// structured *FormatError and never panic or load silently-corrupt
// state.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"slices"
)

// Version is the current snapshot format version. Bump on any encoding
// change; Open rejects blobs from other versions.
const Version uint32 = 4

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

// --- Codec ---

// Codec encodes or decodes a snapshot payload through the same calls, so
// a type's layout is written down once, in one method that hands the
// codec a pointer to each piece of its state in order. Encoding appends
// each value; decoding overwrites it from the payload. All integers are
// little-endian and fixed-width; lengths are u64 so decoding can bound
// them.
//
// Decoding is bounds-checked on every primitive. The first failure
// latches into Err as a *FormatError; later primitives leave their
// values zero and read nothing, so a type's method need only check Err
// (or Check's result) before it indexes with a decoded value.
type Codec struct {
	// buf is, encoding, the reserved container header and the payload so
	// far; decoding, the payload.
	buf  []byte
	off  int // decoding: bytes consumed
	load bool
	err  error
}

// Encoder returns a codec that appends to an empty payload. Its buffer
// reserves the container header ahead of the payload, so Seal finishes
// the blob in place.
func Encoder() *Codec { return &Codec{buf: make([]byte, headerSize)} }

// Grow reserves room for n more payload bytes and the checksum, so an
// encoder sized from an earlier payload writes each byte once.
func (c *Codec) Grow(n int) { c.buf = slices.Grow(c.buf, n+4) }

// Decoder returns a codec that reads payload.
func Decoder(payload []byte) *Codec { return &Codec{buf: payload, load: true} }

// Loading reports whether the codec decodes. A type's method restores
// derived state and allocates what the payload sizes only when it does:
// encoding must never write live state.
func (c *Codec) Loading() bool { return c.load }

// Err returns the first failure, if any.
func (c *Codec) Err() error { return c.err }

// Remaining returns a decoder's undecoded byte count.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

// Payload returns the bytes encoded so far, or those being decoded.
func (c *Codec) Payload() []byte {
	if c.load {
		return c.buf
	}
	return c.buf[headerSize:]
}

// Failf latches a *FormatError at the current offset.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		off := c.off
		if !c.load {
			off = len(c.buf) - headerSize
		}
		c.err = &FormatError{Off: off, Msg: fmt.Sprintf(format, args...)}
	}
}

// Check latches msg as a *FormatError unless ok, and reports whether the
// codec is still free of errors. It states an invariant of the state in
// both directions: a decoded value that breaks it is corrupt, and so is
// live state about to be encoded.
func (c *Codec) Check(ok bool, msg string) bool {
	if !ok {
		c.Failf("%s", msg)
	}
	return c.err == nil
}

// take consumes n bytes, or latches a failure and returns nil.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.buf)-c.off {
		c.Failf("need %d bytes, have %d", n, len(c.buf)-c.off)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U8 codes one byte.
func (c *Codec) U8(p *uint8) {
	if !c.load {
		c.buf = append(c.buf, *p)
		return
	}
	*p = 0
	if b := c.take(1); b != nil {
		*p = b[0]
	}
}

// Bool codes a boolean as one byte; decoding rejects any byte but 0 and 1.
func (c *Codec) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.U8(&v)
	if c.load {
		*p = v == 1
		if v > 1 {
			c.Failf("invalid boolean")
		}
	}
}

// U32 codes a uint32.
func (c *Codec) U32(p *uint32) {
	if !c.load {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
		return
	}
	*p = 0
	if b := c.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

// U64 codes a uint64.
func (c *Codec) U64(p *uint64) {
	if !c.load {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
		return
	}
	*p = 0
	if b := c.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// U64s codes a fixed-length row of uint64s with no length prefix: the
// bulk path for register rows and counter tables.
func (c *Codec) U64s(row []uint64) {
	if !c.load {
		c.buf = slices.Grow(c.buf, 8*len(row))
		for _, v := range row {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, v)
		}
		return
	}
	b := c.take(8 * len(row))
	if b == nil {
		clear(row)
		return
	}
	for i := range row {
		row[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// I64 codes an int64.
func (c *Codec) I64(p *int64) {
	v := uint64(*p)
	c.U64(&v)
	if c.load {
		*p = int64(v)
	}
}

// Int codes an int as an int64; decoding rejects values that overflow the
// platform int.
func (c *Codec) Int(p *int) {
	v := int64(*p)
	c.I64(&v)
	if c.load {
		*p = int(v)
		if int64(*p) != v {
			*p = 0
			c.Failf("int overflow")
		}
	}
}

// F64 codes a float64 by bit pattern.
func (c *Codec) F64(p *float64) {
	v := math.Float64bits(*p)
	c.U64(&v)
	if c.load {
		*p = math.Float64frombits(v)
	}
}

// Len codes a non-negative length. Decoding bounds it by max and by the
// bytes left (a length can never legitimately exceed what is left to
// read, so a corrupt huge length fails here instead of triggering a giant
// allocation).
func (c *Codec) Len(n *int, max int) {
	v := uint64(*n)
	c.U64(&v)
	if !c.load {
		return
	}
	*n = 0
	if c.err == nil && (v > uint64(max) || v > uint64(c.Remaining())) {
		c.Failf("length %d out of bounds (max %d, %d bytes left)", v, max, c.Remaining())
		return
	}
	*n = int(v)
}

// Shape codes a geometry word n (a set count, a bank count) that the
// decoding machine must share with the encoding one: decoding rejects any
// other value.
func (c *Codec) Shape(n int, what string) {
	v := uint64(n)
	c.U64(&v)
	if c.load && c.err == nil && v != uint64(n) {
		c.Failf("%s mismatch: snapshot %d, machine %d", what, v, n)
	}
}

// Bytes codes a length-prefixed byte string of at most max bytes.
// Decoding copies it into *p's storage, so the result never aliases the
// payload.
func (c *Codec) Bytes(p *[]byte, max int) {
	n := len(*p)
	c.Len(&n, max)
	if !c.load {
		c.buf = append(c.buf, *p...)
		return
	}
	*p = append((*p)[:0], c.take(n)...)
}

// Fixed codes a length-prefixed byte string whose length must be len(b),
// decoding it in place.
func (c *Codec) Fixed(b []byte) {
	c.Shape(len(b), "byte string length")
	if !c.load {
		c.buf = append(c.buf, b...)
		return
	}
	if v := c.take(len(b)); v != nil {
		copy(b, v)
	}
}

// String codes a length-prefixed string of at most max bytes.
func (c *Codec) String(p *string, max int) {
	n := len(*p)
	c.Len(&n, max)
	if !c.load {
		c.buf = append(c.buf, *p...)
		return
	}
	*p = string(c.take(n))
}

// Num codes an integer-kinded value (an ID, an enum wider than a byte) as
// a u64.
func Num[T ~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64](c *Codec, p *T) {
	v := uint64(*p)
	c.U64(&v)
	if c.load {
		*p = T(v)
	}
}

// Kind codes a byte enum; decoding rejects values above max.
func Kind[T ~uint8](c *Codec, p *T, max T) {
	v := uint8(*p)
	c.U8(&v)
	if !c.load {
		return
	}
	*p = 0
	if T(v) > max {
		c.Failf("%T %d out of range", *p, v)
		return
	}
	*p = T(v)
}

// Slice codes a length-prefixed slice of at most max elements, calling
// elem on each. Decoding reuses *p's storage and grows it one element at
// a time, so a corrupt length fails on the bytes it lacks rather than
// allocating for it.
func Slice[T any](c *Codec, p *[]T, max int, elem func(*T)) {
	n := len(*p)
	c.Len(&n, max)
	if !c.load {
		for i := range *p {
			elem(&(*p)[i])
		}
		return
	}
	s := (*p)[:0]
	for i := 0; i < n && c.err == nil; i++ {
		var v T
		elem(&v)
		s = append(s, v)
	}
	*p = s
}

// Map codes a map keyed by uint64 with at most max entries, calling val
// on each value. Encoding writes the keys in ascending order, so equal
// maps encode equally; decoding replaces m's contents and rejects a
// duplicate key.
func Map[V any](c *Codec, m map[uint64]V, max int, val func(*V)) {
	if !c.load {
		keys := make([]uint64, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		n := len(keys)
		c.Len(&n, max)
		for _, k := range keys {
			v := m[k]
			c.U64(&k)
			val(&v)
		}
		return
	}
	clear(m)
	var n int
	c.Len(&n, max)
	for i := 0; i < n && c.err == nil; i++ {
		var k uint64
		var v V
		c.U64(&k)
		val(&v)
		if m[k] = v; len(m) != i+1 {
			c.Failf("duplicate key %#x", k)
			return
		}
	}
}

// --- Container ---

// container layout:
//
//	u64 magic | u32 version | u64 configHash | u64 payloadLen |
//	payload bytes | u32 CRC32-IEEE(payload)

const headerSize = 8 + 4 + 8 + 8

// Seal wraps a payload into a self-describing blob bound to configHash.
func Seal(configHash uint64, payload []byte) []byte {
	c := Encoder()
	c.Grow(len(payload))
	c.buf = append(c.buf, payload...)
	return c.Seal(configHash)
}

// Seal finishes the encoded payload into a blob bound to configHash: it
// fills the reserved header and appends the checksum in place, so the
// blob shares the encoder's buffer and the encoder is spent.
func (c *Codec) Seal(configHash uint64) []byte {
	payload := c.buf[headerSize:]
	binary.LittleEndian.PutUint64(c.buf, magic)
	binary.LittleEndian.PutUint32(c.buf[8:], Version)
	binary.LittleEndian.PutUint64(c.buf[12:], configHash)
	binary.LittleEndian.PutUint64(c.buf[20:], uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(c.buf, crc32.ChecksumIEEE(payload))
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

// --- Plain values ---

// maxPlainLen bounds string/slice lengths in plain-value decoding.
const maxPlainLen = 1 << 20

// Plain codes the value p points to, composed of plain data: booleans,
// integers, floats, strings, arrays, slices and structs of those (all
// fields exported). Pointers, maps, interfaces and channels fail the
// codec — state containing them needs a hand-written method.
func (c *Codec) Plain(p any) {
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		c.Failf("Plain needs a non-nil pointer, got %T", p)
		return
	}
	c.plain(v.Elem())
}

func (c *Codec) plain(v reflect.Value) {
	if c.err != nil {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		b := v.Bool()
		c.Bool(&b)
		if c.load {
			v.SetBool(b)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := v.Int()
		c.I64(&n)
		if c.load {
			if v.OverflowInt(n) {
				c.Failf("value %d overflows %s", n, v.Type())
				return
			}
			v.SetInt(n)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n := v.Uint()
		c.U64(&n)
		if c.load {
			if v.OverflowUint(n) {
				c.Failf("value %d overflows %s", n, v.Type())
				return
			}
			v.SetUint(n)
		}
	case reflect.Float64, reflect.Float32:
		f := v.Float()
		c.F64(&f)
		if c.load {
			v.SetFloat(f)
		}
	case reflect.String:
		s := v.String()
		c.String(&s, maxPlainLen)
		if c.load {
			v.SetString(s)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			c.plain(v.Index(i))
		}
	case reflect.Slice:
		n := v.Len()
		c.Len(&n, maxPlainLen)
		if c.load && c.err == nil {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
		}
		for i := 0; i < n && c.err == nil; i++ {
			c.plain(v.Index(i))
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				c.Failf("cannot code unexported field %s.%s", t.Name(), t.Field(i).Name)
				return
			}
			c.plain(v.Field(i))
		}
	default:
		c.Failf("cannot code kind %s", v.Kind())
	}
}

// HashPlain returns an FNV-1a 64-bit hash of plain values' encoding, used
// to bind snapshots to the configuration that produced them and to
// address farm cells.
func HashPlain(vs ...any) (uint64, error) {
	c := Encoder()
	for _, v := range vs {
		c.plain(reflect.ValueOf(v))
	}
	if c.err != nil {
		return 0, c.err
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range c.Payload() {
		h ^= uint64(b)
		h *= prime64
	}
	return h, nil
}
