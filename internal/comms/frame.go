// Package comms is the cluster wire layer: length-prefixed binary frames
// with a fixed header (magic, version, type, request id, payload length) and
// a whole-frame CRC32 trailer, multiplexed over persistent TCP connections.
// Multiple requests share one connection concurrently; responses correlate
// by request id and cancellation travels as a control frame. The layer is
// payload-agnostic — internal/cluster defines the application frame types
// and JSON payload schemas.
package comms

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// Wire format, little-endian:
//
//	[0:4)   magic 0x6d637267 ("grcm")
//	[4]     version (currently 1)
//	[5]     frame type
//	[6:14)  request id
//	[14:18) payload length
//	[18:18+n) payload
//	[18+n:22+n) CRC32 (IEEE) over bytes [0, 18+n)
const (
	Magic       uint32 = 0x6d637267
	Version     uint8  = 1
	headerSize         = 18
	trailerSize        = 4

	// MaxPayload bounds a single frame. Scatter requests and gathered
	// top-k partials are small; the bound exists so a corrupt or hostile
	// length field cannot make a reader allocate unboundedly.
	MaxPayload = 16 << 20
)

// Control frame types live below TypeApp; application layers must number
// their frame types from TypeApp upward.
const (
	// TypeCancel aborts the in-flight request carrying the same request
	// id. It has no payload and receives no response.
	TypeCancel uint8 = 1

	// TypeApp is the first frame type available to application layers.
	TypeApp uint8 = 16
)

// Typed decode errors. Stream readers wrap short reads into ErrTruncated so
// callers can distinguish a cut connection from a corrupt one.
var (
	ErrBadMagic  = errors.New("comms: bad frame magic")
	ErrVersion   = errors.New("comms: unsupported frame version")
	ErrChecksum  = errors.New("comms: frame checksum mismatch")
	ErrTruncated = errors.New("comms: truncated frame")
	ErrTooLarge  = errors.New("comms: frame payload too large")
)

// Frame is one decoded wire frame.
type Frame struct {
	Type      uint8
	RequestID uint64
	Payload   []byte
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. It fails only when the payload exceeds MaxPayload.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return dst, ErrTooLarge
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = append(dst, Version, f.Type)
	dst = binary.LittleEndian.AppendUint64(dst, f.RequestID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

// DecodeFrame decodes one frame from the start of b, returning the frame
// and the number of bytes consumed. The returned payload aliases b. Errors
// are the package's typed errors; a partial frame yields ErrTruncated.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < headerSize {
		return Frame{}, 0, ErrTruncated
	}
	if binary.LittleEndian.Uint32(b[0:4]) != Magic {
		return Frame{}, 0, ErrBadMagic
	}
	if b[4] != Version {
		return Frame{}, 0, ErrVersion
	}
	n := int(binary.LittleEndian.Uint32(b[14:18]))
	if n > MaxPayload {
		return Frame{}, 0, ErrTooLarge
	}
	total := headerSize + n + trailerSize
	if len(b) < total {
		return Frame{}, 0, ErrTruncated
	}
	if crc32.ChecksumIEEE(b[:headerSize+n]) != binary.LittleEndian.Uint32(b[headerSize+n:total]) {
		return Frame{}, 0, ErrChecksum
	}
	return Frame{
		Type:      b[5],
		RequestID: binary.LittleEndian.Uint64(b[6:14]),
		Payload:   b[headerSize : headerSize+n],
	}, total, nil
}

// WriteFrame encodes and writes one frame. The scratch slice, if non-nil,
// is reused as the encode buffer; callers serialize writes themselves (the
// Conn and server types hold a write mutex).
func WriteFrame(w io.Writer, f Frame, scratch []byte) ([]byte, error) {
	buf, err := AppendFrame(scratch[:0], f)
	if err != nil {
		return scratch, err
	}
	_, err = w.Write(buf)
	return buf, err
}

// ReadFrame reads one whole frame from r, reusing scratch for the frame
// bytes; the returned payload aliases the returned buffer. io.EOF at a
// frame boundary is returned as io.EOF; EOF inside a frame, as
// ErrTruncated.
func ReadFrame(r io.Reader, scratch []byte) (Frame, []byte, error) {
	buf := scratch
	if cap(buf) < headerSize+trailerSize {
		buf = make([]byte, 0, 512)
	}
	buf = buf[:headerSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return Frame{}, buf, io.EOF
		}
		return Frame{}, buf, errTrunc(err)
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != Magic {
		return Frame{}, buf, ErrBadMagic
	}
	if buf[4] != Version {
		return Frame{}, buf, ErrVersion
	}
	n := int(binary.LittleEndian.Uint32(buf[14:18]))
	if n > MaxPayload {
		return Frame{}, buf, ErrTooLarge
	}
	total := headerSize + n + trailerSize
	if cap(buf) < total {
		nb := make([]byte, total)
		copy(nb, buf)
		buf = nb
	}
	buf = buf[:total]
	if _, err := io.ReadFull(r, buf[headerSize:]); err != nil {
		return Frame{}, buf, errTrunc(err)
	}
	f, _, err := DecodeFrame(buf)
	return f, buf, err
}

func errTrunc(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}
