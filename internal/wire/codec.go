// Package wire defines the binary client/broker protocol of the messaging
// layer: a length-prefixed frame carrying a request or response header and a
// typed message body. All brokers, clients, replica fetchers and the offset
// manager speak this protocol over TCP, mirroring how the paper's messaging
// layer exposes produce/fetch/metadata/offset APIs (§3.1, §4.2).
//
// Encoding conventions: integers are big-endian; strings are int16-length
// prefixed UTF-8 (-1 encodes the empty string is not used; empty strings are
// length 0); byte blobs are int32-length prefixed with -1 encoding nil;
// arrays are int32-count prefixed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrDecode is returned when a message body cannot be decoded.
var ErrDecode = errors.New("wire: malformed message")

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf     []byte
	splices []splice
}

// splice marks a point in buf where an external byte range is stitched into
// the frame at write time; see Writer.Splice.
type splice struct {
	at  int
	src ByteRange
}

// ByteRange is an externally stored byte region a response splices into its
// frame without copying it through the encode buffer — the zero-copy fetch
// path (a raw batch range of a segment file). Len must be stable for the
// lifetime of the write and WriteTo must produce exactly Len bytes; the
// framed writer precomputes the frame length from it before streaming.
type ByteRange interface {
	Len() int64
	WriteTo(w io.Writer) (int64, error)
}

// MemRange is an in-memory ByteRange: an immutable byte slice spliced into
// the frame by a single Write instead of being copied through the encode
// buffer. The slice must not change until the frame is written.
type MemRange []byte

// Len implements ByteRange.
func (m MemRange) Len() int64 { return int64(len(m)) }

// WriteTo implements ByteRange.
func (m MemRange) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(m)
	return int64(n), err
}

// Bytes returns the encoded bytes accumulated so far. A writer carrying
// pending splices returns only the buffered part; splices are understood
// solely by the framed write path (WriteResponseFrame).
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes accumulated.
func (w *Writer) Len() int { return len(w.buf) }

// Reset clears the writer for reuse, retaining capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.splices = w.splices[:0]
}

// Splice appends an int32 length prefix for src and records src to be
// streamed into the frame at this position by the framed write path. The
// bytes of src never enter the encode buffer — on TCP connections they move
// file-to-socket via sendfile.
func (w *Writer) Splice(src ByteRange) {
	w.Int32(int32(src.Len()))
	w.splices = append(w.splices, splice{at: len(w.buf), src: src})
}

// Int8 appends a signed 8-bit integer.
func (w *Writer) Int8(v int8) { w.buf = append(w.buf, byte(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Int16 appends a signed 16-bit integer.
func (w *Writer) Int16(v int16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(v))
}

// Int32 appends a signed 32-bit integer.
func (w *Writer) Int32(v int32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v))
}

// Int64 appends a signed 64-bit integer.
func (w *Writer) Int64(v int64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(v))
}

// String appends an int16-length-prefixed string.
func (w *Writer) String(s string) {
	if len(s) > math.MaxInt16 {
		s = s[:math.MaxInt16]
	}
	w.Int16(int16(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes32 appends an int32-length-prefixed byte blob; nil encodes as -1.
func (w *Writer) Bytes32(b []byte) {
	if b == nil {
		w.Int32(-1)
		return
	}
	w.Int32(int32(len(b)))
	w.buf = append(w.buf, b...)
}

// ArrayLen appends an array count.
func (w *Writer) ArrayLen(n int) { w.Int32(int32(n)) }

// StringArray appends an int32-count-prefixed array of strings.
func (w *Writer) StringArray(ss []string) {
	w.ArrayLen(len(ss))
	for _, s := range ss {
		w.String(s)
	}
}

// Int32Array appends an int32-count-prefixed array of int32s.
func (w *Writer) Int32Array(vs []int32) {
	w.ArrayLen(len(vs))
	for _, v := range vs {
		w.Int32(v)
	}
}

// Reader decodes a message with a sticky error: after the first decoding
// failure all subsequent reads return zero values and Err reports the error.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrDecode
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Int8 reads a signed 8-bit integer.
func (r *Reader) Int8() int8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return int8(b[0])
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Int8() != 0 }

// Int16 reads a signed 16-bit integer.
func (r *Reader) Int16() int16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return int16(binary.BigEndian.Uint16(b))
}

// Int32 reads a signed 32-bit integer.
func (r *Reader) Int32() int32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return int32(binary.BigEndian.Uint32(b))
}

// Int64 reads a signed 64-bit integer.
func (r *Reader) Int64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// String reads an int16-length-prefixed string.
func (r *Reader) String() string {
	n := r.Int16()
	if n < 0 {
		r.fail()
		return ""
	}
	b := r.take(int(n))
	return string(b)
}

// Bytes32 reads an int32-length-prefixed byte blob (-1 decodes to nil).
// The returned slice is a copy and safe to retain.
func (r *Reader) Bytes32() []byte {
	n := r.Int32()
	if n == -1 {
		return nil
	}
	if n < 0 {
		r.fail()
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// RawBytes32 reads an int32-length-prefixed byte blob (-1 decodes to nil)
// WITHOUT copying: the returned slice aliases the Reader's buffer. It
// exists for the two hot-path record blobs — produce-request and
// fetch-response Records — where the bytes are consumed before the
// underlying frame buffer can be reused. Any caller that retains the slice
// past that point must copy it (or use Bytes32).
func (r *Reader) RawBytes32() []byte {
	n := r.Int32()
	if n == -1 {
		return nil
	}
	if n < 0 {
		r.fail()
		return nil
	}
	return r.take(int(n))
}

// ArrayLen reads an array count, bounding it by the remaining bytes so a
// corrupt count cannot cause huge allocations.
func (r *Reader) ArrayLen() int {
	n := r.Int32()
	if n < 0 || int(n) > r.Remaining() {
		if n != 0 {
			r.fail()
		}
		return 0
	}
	return int(n)
}

// StringArray reads an int32-count-prefixed array of strings.
func (r *Reader) StringArray() []string {
	n := r.ArrayLen()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.String())
	}
	return out
}

// Int32Array reads an int32-count-prefixed array of int32s.
func (r *Reader) Int32Array() []int32 {
	n := r.ArrayLen()
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Int32())
	}
	return out
}

// Done reports an error unless the reader consumed the whole buffer cleanly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(r.buf)-r.pos)
	}
	return nil
}
