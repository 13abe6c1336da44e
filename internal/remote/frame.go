package remote

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync/atomic"
	"time"
)

// Wire frame, the same shape in both directions:
//
//	kind(1) | uvarint(count) | uvarint(len) | body(len)
//
// A data frame (frameTuples) carries a run of count tuples back to back in
// the stream.Tuple wire encoding; every other kind carries count 0 and one
// small payload (DESIGN.md §6.2 has the table). One frame is one Conn.Write.
const (
	frameTuples   = iota // count × stream.Tuple.AppendBinary
	framePunct           // punct.Pattern.AppendBinary
	frameEOS             // empty
	frameFeedback        // core.Feedback.AppendBinary, upstream only
	// frameBarrier carries a checkpoint barrier in-band on the data path:
	// varint(epoch). It is never merged into a data frame
	// nor reordered past one — its position on the wire is the cut.
	frameBarrier
	frameKinds
)

// frameNames words the kinds for errors.
var frameNames = [frameKinds]string{"tuple-run", "punctuation", "end-of-stream", "feedback", "barrier"}

const (
	// maxFrameBody bounds both len and count of an incoming frame before
	// anything is allocated from them, and what a writer may frame.
	maxFrameBody = 16 << 20
	// runBytes closes a run that no punctuation, barrier or FlushEvery has
	// closed, so a long stretch of tuples cannot add up to a frame the
	// reader must refuse.
	runBytes = 64 << 10
	// hdrRoom is the space a writer keeps ahead of the body for the header:
	// count and len are at most maxFrameBody, four uvarint bytes each.
	hdrRoom = 1 + 2*binary.MaxVarintLen32
	// readBuf is the reader's initial buffer. It doubles (frameReader.fill)
	// until it holds the largest frame seen.
	readBuf = 32 << 10
)

// frameWriter assembles one frame at a time in a reused buffer. Callers
// append the body to buf and call flush.
type frameWriter struct {
	conn    net.Conn
	timeout time.Duration // deadline armed once per frame write; 0 = none
	bytes   *atomic.Int64 // wire bytes written
	buf     []byte        // hdrRoom spare bytes, then the open frame's body
}

func newFrameWriter(conn net.Conn, timeout time.Duration, bytes *atomic.Int64) *frameWriter {
	return &frameWriter{conn: conn, timeout: timeout, bytes: bytes, buf: make([]byte, hdrRoom, 4<<10)}
}

// flush frames the buffered body under the given kind and count, writes
// header and body with a single Conn.Write, and empties the buffer.
//
//pace:hotpath
func (w *frameWriter) flush(kind byte, count int) error {
	n := len(w.buf) - hdrRoom
	if n > maxFrameBody {
		w.buf = w.buf[:hdrRoom]
		return errFrameTooLarge(kind, n)
	}
	// The header is right-aligned in the spare room so it abuts the body.
	start := hdrRoom - 1 - uvarintLen(uint64(count)) - uvarintLen(uint64(n))
	w.buf[start] = kind
	k := start + 1 + binary.PutUvarint(w.buf[start+1:], uint64(count))
	binary.PutUvarint(w.buf[k:], uint64(n))
	if w.timeout > 0 {
		_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout)) // an unsupported deadline only loses the bound
	}
	m, err := w.conn.Write(w.buf[start:])
	w.bytes.Add(int64(m))
	w.buf = w.buf[:hdrRoom]
	if err != nil {
		return errWrite(kind, err)
	}
	return nil
}

func errWrite(kind byte, err error) error {
	return fmt.Errorf("remote: write %s frame to peer: %w", frameNames[kind], err)
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func errFrameTooLarge(kind byte, n int) error {
	return fmt.Errorf("remote: %s frame of %d bytes exceeds the %d-byte limit", frameNames[kind], n, maxFrameBody)
}

// frameReader reads frames through a reused buffer that doubles as the
// read-ahead: one Conn.Read usually brings in several frames.
type frameReader struct {
	r      io.Reader
	bytes  *atomic.Int64 // wire bytes read
	buf    []byte
	lo, hi int // buf[lo:hi] is read but not yet consumed
}

func newFrameReader(r io.Reader, bytes *atomic.Int64) *frameReader {
	return &frameReader{r: r, bytes: bytes, buf: make([]byte, readBuf)}
}

// next returns the next frame. The body aliases the reader's buffer and is
// valid until the following call. The error is io.EOF only when the stream
// ends on a frame boundary.
func (fr *frameReader) next() (kind byte, count int, body []byte, err error) {
	kind, count, hdr, n, err := fr.header()
	if err != nil {
		return 0, 0, nil, err
	}
	if err := fr.fill(hdr + n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, fmt.Errorf("remote: read %s frame of %d bytes: %w", frameNames[kind], n, err)
	}
	body = fr.buf[fr.lo+hdr : fr.lo+hdr+n]
	fr.lo += hdr + n
	return kind, count, body, nil
}

// header buffers and validates the next frame's header, returning its
// fields, its own length and the body's.
func (fr *frameReader) header() (kind byte, count, hdr, n int, err error) {
	if fr.lo == fr.hi {
		fr.lo, fr.hi = 0, 0
	}
	for {
		b := fr.buf[fr.lo:fr.hi]
		if len(b) > 0 {
			if kind = b[0]; kind >= frameKinds {
				return 0, 0, 0, 0, fmt.Errorf("remote: unknown frame kind %d", kind)
			}
			c, k1 := binary.Uvarint(b[1:])
			l, k2 := uint64(0), 0
			if k1 > 0 {
				l, k2 = binary.Uvarint(b[1+k1:])
			}
			if k1 < 0 || k2 < 0 || c > maxFrameBody || l > maxFrameBody {
				return 0, 0, 0, 0, fmt.Errorf("remote: %s frame: count or length beyond the %d-byte frame limit", frameNames[kind], maxFrameBody)
			}
			if k2 > 0 {
				if kind != frameTuples && c != 0 {
					return 0, 0, 0, 0, fmt.Errorf("remote: %s frame carries count %d, want 0", frameNames[kind], c)
				}
				return kind, int(c), 1 + k1 + k2, int(l), nil
			}
		}
		if err := fr.fill(len(b) + 1); err != nil {
			if err == io.EOF && len(b) > 0 {
				err = fmt.Errorf("remote: frame header: %w", io.ErrUnexpectedEOF)
			}
			return 0, 0, 0, 0, err
		}
	}
}

// fill reads until at least need unconsumed bytes are buffered. The buffer
// grows as bytes arrive, never to what a length prefix claims: a hostile len
// costs at most twice what its sender actually transmitted.
func (fr *frameReader) fill(need int) error {
	if fr.lo > 0 && fr.lo+need > len(fr.buf) {
		fr.hi = copy(fr.buf, fr.buf[fr.lo:fr.hi])
		fr.lo = 0
	}
	for fr.hi-fr.lo < need {
		if fr.hi == len(fr.buf) {
			fr.buf = append(fr.buf, make([]byte, len(fr.buf))...)
		}
		m, err := fr.r.Read(fr.buf[fr.hi:])
		fr.hi += m
		fr.bytes.Add(int64(m))
		if err != nil && fr.hi-fr.lo < need {
			return err
		}
	}
	return nil
}
