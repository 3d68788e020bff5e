package serve

import (
	"io"
	"testing"
)

// chunkReader delivers its bytes in fixed-size chunks, modelling a TCP
// stream that fragments frames at arbitrary boundaries.
type chunkReader struct {
	b     []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := r.chunk
	if n <= 0 {
		n = 1
	}
	if n > len(p) {
		n = len(p)
	}
	if n > len(r.b) {
		n = len(r.b)
	}
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

// FuzzFrame fuzzes the frame decoder with an arbitrary byte stream
// delivered in arbitrary-size chunks: it must never panic, never hand
// back a payload longer than the cap, and never grow its buffer past
// MaxFrame no matter what the length prefixes claim. Decoded payloads
// are then walked with the same cursor reads the session handlers use,
// exercising the over-read guard.
func FuzzFrame(f *testing.F) {
	frame := rawFrame
	hello := frame(OpHello, []byte{0x44, 0x54, 0x54, 0x31, 0x00, 0x01})
	f.Add(hello, byte(1))
	f.Add(hello[:3], byte(2))                                     // truncated header
	f.Add(frame(OpAttach, []byte{0, 0, 0, 8})[:7], byte(1))       // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, OpTStoreBatch}, byte(4)) // absurd length
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00}, byte(5))          // zero length
	f.Add(frame(250, []byte{1, 2, 3}), byte(3))                   // unknown opcode
	f.Add(append(hello, frame(OpBarrier, nil)...), byte(2))       // interleaved frames
	batch := []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2}
	batch = append(batch, make([]byte, 16)...)
	f.Add(frame(OpTStoreBatch, batch), byte(7))
	update := []byte{0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 2}
	update = append(update, make([]byte, 16)...)
	f.Add(frame(OpTUpdate, update), byte(6))
	// Ranged CHANGE_NOTIFY (wire v3): handle 1, lo 4, dropped 9, n 2 and
	// two words; then the same header claiming more and fewer words than
	// the payload holds, and one claiming 2^32-1.
	notify := []byte{0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 9, 0, 0, 0, 2}
	notify = append(notify, make([]byte, 16)...)
	f.Add(frame(OpChangeNotify, notify), byte(5))
	notify[15] = 3
	f.Add(frame(OpChangeNotify, notify), byte(9))
	notify[15] = 1
	f.Add(frame(OpChangeNotify, notify), byte(3))
	copy(notify[12:16], []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(frame(OpChangeNotify, notify), byte(200))

	f.Fuzz(func(t *testing.T, data []byte, chunk byte) {
		fr := newFrameReader(&chunkReader{b: data, chunk: int(chunk)})
		for {
			op, payload, err := fr.ReadFrame()
			if err != nil {
				return
			}
			if len(payload) > MaxFrame-1 {
				t.Fatalf("payload of %d bytes above the cap", len(payload))
			}
			if cap(fr.buf) > MaxFrame {
				t.Fatalf("decode buffer grew to %d, above MaxFrame", cap(fr.buf))
			}
			c := cursor{b: payload}
			switch op {
			case OpHello:
				_, _ = c.u32(), c.u16()
			case OpAttach:
				_, _, _ = c.u32(), c.u32(), c.u32()
				_ = c.take(int(c.u16()))
			case OpTStoreBatch:
				_, _ = c.u32(), c.u32()
				n := c.u32()
				if !c.bad && n <= MaxFrame/8 && len(payload)-c.off == int(n)*8 {
					for i := uint32(0); i < n; i++ {
						_ = c.u64()
					}
					if !c.done() {
						t.Fatal("exact-size batch payload not fully consumed")
					}
				}
			case OpTUpdate:
				_, _, _ = c.u32(), c.u8(), c.u32()
				n := c.u32()
				if !c.bad && n <= MaxFrame/8 && len(payload)-c.off == int(n)*8 {
					for i := uint32(0); i < n; i++ {
						_ = c.u64()
					}
					if !c.done() {
						t.Fatal("exact-size update payload not fully consumed")
					}
				}
			case OpWait, OpSubscribe:
				_, _ = c.u32(), c.u32()
				_ = c.u64()
			case OpChangeNotify:
				// The client's decoder itself: a count that disagrees with
				// the payload length is an error, never a panic, an
				// over-read or a short expansion.
				ns, dropped, err := appendNotifies(nil, payload)
				if err != nil {
					if len(ns) != 0 {
						t.Fatalf("malformed CHANGE_NOTIFY still expanded to %d notifies", len(ns))
					}
					break
				}
				_, lo := c.u32(), c.u32()
				if stamp, n := c.u32(), c.u32(); stamp != dropped || int(n) != len(ns) || len(payload) != notifyFixed+8*len(ns) {
					t.Fatalf("CHANGE_NOTIFY of %d bytes claiming %d words (stamp %d) expanded to %d notifies (stamp %d)",
						len(payload), n, stamp, len(ns), dropped)
				}
				for i, nt := range ns {
					if nt.Index != int(lo)+i || nt.Value != c.u64() || nt.Dropped != dropped {
						t.Fatalf("word %d of the run at %d expanded to %+v", i, lo, nt)
					}
				}
				if !c.done() {
					t.Fatal("exact-size notify payload not fully consumed")
				}
			case OpError:
				_ = c.take(int(c.u16()))
			}
			_ = c.done()
		}
	})
}
