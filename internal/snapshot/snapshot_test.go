package snapshot

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// roundTrip encodes *in with f, then decodes the payload into *out with
// the same f, and returns the decoder.
func roundTrip[T any](in, out *T, f func(c *Codec, s *T)) *Codec {
	enc := Encoder()
	f(enc, in)
	dec := Decoder(enc.Payload())
	f(dec, out)
	return dec
}

func TestCodecRoundTrip(t *testing.T) {
	type state struct {
		u8    uint8
		t, f  bool
		u32   uint32
		u64   uint64
		i64   int64
		i     int
		f64   float64
		n     int
		b     []byte
		fixed [3]byte
		s     string
		row   [2]uint64
		kind  uint8
		num   int16
		list  []int
		m     map[uint64]string
	}
	in := state{u8: 0xab, t: true, u32: 0xdeadbeef, u64: 0x0123456789abcdef,
		i64: -42, i: -7, f64: math.Pi, n: 3, b: []byte{1, 2, 3}, fixed: [3]byte{4, 5, 6},
		s: "hello", row: [2]uint64{9, 10}, kind: 2, num: -300, list: []int{-1, 0, 1},
		m: map[uint64]string{7: "seven", 2: "two"}}
	out := state{t: false, f: true, m: map[uint64]string{99: "stale"}}
	dec := roundTrip(&in, &out, func(c *Codec, s *state) {
		c.U8(&s.u8)
		c.Bool(&s.t)
		c.Bool(&s.f)
		c.U32(&s.u32)
		c.U64(&s.u64)
		c.I64(&s.i64)
		c.Int(&s.i)
		c.F64(&s.f64)
		c.Len(&s.n, 10)
		c.Bytes(&s.b, 10)
		c.Fixed(s.fixed[:])
		c.String(&s.s, 10)
		c.U64s(s.row[:])
		Kind(c, &s.kind, 2)
		Num(c, &s.num)
		Slice(c, &s.list, 10, c.Int)
		Map(c, s.m, 10, func(v *string) { c.String(v, 10) })
	})
	if err := dec.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if dec.Remaining() != 0 {
		t.Errorf("%d bytes left over", dec.Remaining())
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
	clear(dec.Payload())
	if string(out.b) != "\x01\x02\x03" || out.s != "hello" {
		t.Error("decoded bytes alias the payload")
	}
}

func TestReaderErrorLatches(t *testing.T) {
	c := Decoder([]byte{1, 2})
	v := uint64(5)
	c.U64(&v) // needs 8 bytes, only 2 available
	if c.Err() == nil {
		t.Fatal("expected error after short read")
	}
	if v != 0 {
		t.Errorf("failed U64 left %d", v)
	}
	var fe *FormatError
	if !errors.As(c.Err(), &fe) {
		t.Fatalf("error %T is not *FormatError", c.Err())
	}
	// Later primitives zero their values without touching the buffer.
	b, u := []byte{9}, uint8(9)
	c.U8(&u)
	c.Bytes(&b, 100)
	if u != 0 || len(b) != 0 || c.Remaining() != 2 {
		t.Errorf("after error: U8 %d, Bytes %v, %d bytes left", u, b, c.Remaining())
	}
}

func TestReaderRejectsBadValues(t *testing.T) {
	reject := func(name string, payload []byte, f func(c *Codec)) {
		t.Helper()
		c := Decoder(payload)
		f(c)
		if c.Err() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	encode := func(f func(c *Codec)) []byte {
		c := Encoder()
		f(c)
		return c.Payload()
	}
	var b bool
	reject("Bool(2)", []byte{2}, func(c *Codec) { c.Bool(&b) })
	hundred := encode(func(c *Codec) { n := 100; c.Len(&n, 200) })
	var n int
	reject("length beyond max", append(hundred, make([]byte, 100)...), func(c *Codec) { c.Len(&n, 50) })
	// A length beyond the remaining bytes is the giant-allocation guard.
	huge := encode(func(c *Codec) { n := 1 << 40; c.Len(&n, 1<<50) })
	var bs []byte
	reject("length beyond remaining bytes", huge, func(c *Codec) { c.Bytes(&bs, 1<<50) })
	var k uint8
	reject("kind above max", []byte{3}, func(c *Codec) { Kind(c, &k, 2) })
	three := encode(func(c *Codec) { c.Shape(3, "x") })
	reject("shape mismatch", three, func(c *Codec) { c.Shape(4, "x") })
	reject("fixed length mismatch", append(three, 1, 2, 3), func(c *Codec) { c.Fixed(make([]byte, 2)) })
	dup := encode(func(c *Codec) {
		n, k := 2, uint64(5)
		c.Len(&n, 10)
		c.U64(&k)
		c.U64(&k)
	})
	reject("duplicate map key", dup, func(c *Codec) { Map(c, map[uint64]int{}, 10, func(*int) {}) })
	reject("failed check", nil, func(c *Codec) { c.Check(false, "broken invariant") })
}

type plainInner struct {
	Name  string
	Vals  []uint64
	Flag  bool
	Ratio float64
}

type plainOuter struct {
	A     int
	B     uint32
	Inner plainInner
	Arr   [3]int16
}

func TestPlainCodecRoundTrip(t *testing.T) {
	in := plainOuter{
		A:     -99,
		B:     77,
		Inner: plainInner{Name: "x", Vals: []uint64{1, 2, 3}, Flag: true, Ratio: 0.5},
		Arr:   [3]int16{-1, 0, 1},
	}
	var out plainOuter
	dec := roundTrip(&in, &out, func(c *Codec, p *plainOuter) { c.Plain(p) })
	if err := dec.Err(); err != nil {
		t.Fatalf("Plain: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch: %+v", out)
	}
	if dec.Remaining() != 0 {
		t.Errorf("%d bytes left over", dec.Remaining())
	}
	// Decoding checks that each integer fits its field.
	big := Encoder()
	v := struct{ N int64 }{1 << 20}
	big.Plain(&v)
	var small struct{ N int16 }
	c := Decoder(big.Payload())
	if c.Plain(&small); c.Err() == nil {
		t.Error("overflowing integer accepted")
	}
}

func TestPlainCodecRejectsPointers(t *testing.T) {
	c := Encoder()
	if c.Plain(&struct{ P *int }{}); c.Err() == nil {
		t.Error("pointer field accepted")
	}
	if _, err := HashPlain(struct{ P *int }{}); err == nil {
		t.Error("HashPlain accepted a pointer field")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	payload := []byte("state bytes here")
	const hash = 0x1122334455667788
	blob := Seal(hash, payload)
	got, err := Open(blob, hash)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if string(got) != string(payload) {
		t.Errorf("payload mismatch: %q", got)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	payload := []byte("state bytes here")
	const hash = 0x1122334455667788
	blob := Seal(hash, payload)

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		hash   uint64
	}{
		{"wrong hash", func(b []byte) []byte { return b }, hash + 1},
		{"truncated header", func(b []byte) []byte { return b[:10] }, hash},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, hash},
		{"empty", func(b []byte) []byte { return nil }, hash},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, hash},
		{"version skew", func(b []byte) []byte { b[8]++; return b }, hash},
		{"payload bit flip", func(b []byte) []byte { b[headerSize+3] ^= 0x10; return b }, hash},
		{"crc bit flip", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, hash},
		{"extra trailing byte", func(b []byte) []byte { return append(b, 0) }, hash},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), blob...))
			if _, err := Open(b, tc.hash); err == nil {
				t.Fatal("tampered blob accepted")
			} else {
				var fe *FormatError
				if !errors.As(err, &fe) {
					t.Fatalf("error %T is not *FormatError", err)
				}
			}
		})
	}
}

func TestInspect(t *testing.T) {
	payload := []byte("state bytes here")
	const hash = 0x1122334455667788
	blob := Seal(hash, payload)

	h, got, err := Inspect(blob)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if h != hash {
		t.Errorf("hash = %#x, want %#x", h, hash)
	}
	if string(got) != string(payload) {
		t.Errorf("payload mismatch: %q", got)
	}

	// Inspect does not bind to a configuration, but every integrity
	// defect Open rejects must still fail.
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"version skew", func(b []byte) []byte { b[8]++; return b }},
		{"payload bit flip", func(b []byte) []byte { b[headerSize+3] ^= 0x10; return b }},
		{"crc bit flip", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), blob...))
			if _, _, err := Inspect(b); err == nil {
				t.Fatal("tampered blob accepted")
			} else {
				var fe *FormatError
				if !errors.As(err, &fe) {
					t.Fatalf("error %T is not *FormatError", err)
				}
			}
		})
	}
}

func TestHashPlainStable(t *testing.T) {
	a, err := HashPlain(plainOuter{A: 1}, "tag")
	if err != nil {
		t.Fatal(err)
	}
	b, err := HashPlain(plainOuter{A: 1}, "tag")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("hash not deterministic")
	}
	c, err := HashPlain(plainOuter{A: 2}, "tag")
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("hash insensitive to value change")
	}
}

// FuzzOpen checks that no input to the container validator panics or is
// accepted without a matching seal.
func FuzzOpen(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add(Seal(42, []byte("payload")), uint64(42))
	f.Add(Seal(42, []byte("payload")), uint64(43))
	blob := Seal(7, []byte("x"))
	blob[9]++
	f.Add(blob, uint64(7))
	f.Fuzz(func(t *testing.T, b []byte, hash uint64) {
		payload, err := Open(b, hash)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error %T is not *FormatError", err)
			}
			return
		}
		// Accepted blobs must round-trip exactly.
		again := Seal(hash, payload)
		if string(again) != string(b) {
			t.Fatalf("accepted blob does not re-seal identically")
		}
	})
}

// FuzzReader drives the bounds-checked decoding primitives over
// arbitrary bytes; they must never panic and must latch an error instead
// of over-reading.
func FuzzReader(f *testing.F) {
	c := Encoder()
	one, abc, yes := uint64(1), []byte("abc"), true
	c.U64(&one)
	c.Bytes(&abc, 3)
	c.Bool(&yes)
	f.Add(c.Payload())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			u8  uint8
			ok  bool
			u32 uint32
			u64 uint64
			i   int
			f64 float64
			bs  []byte
			s   string
			row [3]uint64
		)
		c := Decoder(b)
		c.U8(&u8)
		c.Bool(&ok)
		c.U32(&u32)
		c.U64(&u64)
		c.Int(&i)
		c.F64(&f64)
		c.Bytes(&bs, 1<<16)
		c.String(&s, 1<<16)
		c.U64s(row[:])
		Slice(c, &bs, 1<<16, c.U8)
		Map(c, map[uint64]int{}, 1<<16, c.Int)
		if c.Remaining() < 0 {
			t.Fatal("decoder over-read the buffer")
		}
	})
}
