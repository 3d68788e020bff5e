package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	var scratch []byte
	var err error
	scratch, n, err := writeFrame(bw, scratch, OpTStoreBatch, func(b []byte) []byte {
		b = appendU32(b, 7)
		b = appendU32(b, 3)
		b = appendU32(b, 2)
		b = appendU64(b, 0xdeadbeefcafe)
		return appendU64(b, 42)
	})
	if err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	if want := headerLen + 12 + 16; n != want {
		t.Fatalf("wrote %d bytes, want %d", n, want)
	}
	if _, _, err := writeFrame(bw, scratch, OpBarrier, nil); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	fr := newFrameReader(&buf)
	op, payload, err := fr.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if op != OpTStoreBatch || len(payload) != 28 {
		t.Fatalf("frame 1 = %s with %d payload bytes, want TSTORE_BATCH with 28", opName(op), len(payload))
	}
	c := cursor{b: payload}
	if h, lo, n := c.u32(), c.u32(), c.u32(); h != 7 || lo != 3 || n != 2 {
		t.Fatalf("decoded header %d %d %d, want 7 3 2", h, lo, n)
	}
	if v1, v2 := c.u64(), c.u64(); v1 != 0xdeadbeefcafe || v2 != 42 {
		t.Fatalf("decoded words %#x %d", v1, v2)
	}
	if !c.done() {
		t.Fatal("cursor not exactly consumed")
	}
	op, payload, err = fr.ReadFrame()
	if err != nil || op != OpBarrier || len(payload) != 0 {
		t.Fatalf("frame 2 = %s/%d bytes, err %v; want empty BARRIER", opName(op), len(payload), err)
	}
	if _, _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("ReadFrame at stream end: %v, want io.EOF", err)
	}
}

func TestFrameReaderRejectsBadLengths(t *testing.T) {
	for _, tc := range []struct {
		name   string
		length uint32
	}{
		{"zero length", 0},
		{"over MaxFrame", MaxFrame + 1},
		{"absurd length", 1 << 31},
	} {
		hdr := make([]byte, headerLen)
		binary.BigEndian.PutUint32(hdr, tc.length)
		hdr[4] = OpHello
		fr := newFrameReader(bytes.NewReader(hdr))
		if _, _, err := fr.ReadFrame(); err == nil || err == io.EOF {
			t.Errorf("%s: ReadFrame err = %v, want length error", tc.name, err)
		}
	}
}

func TestFrameReaderTruncation(t *testing.T) {
	// A frame claiming 100 payload bytes but delivering 3.
	hdr := make([]byte, headerLen)
	binary.BigEndian.PutUint32(hdr, 101)
	hdr[4] = OpAttach
	in := append(hdr, 1, 2, 3)
	fr := newFrameReader(bytes.NewReader(in))
	_, _, err := fr.ReadFrame()
	if err == nil || err == io.EOF {
		t.Fatalf("truncated payload: err = %v, want unexpected-EOF error", err)
	}
	if !strings.Contains(err.Error(), "ATTACH") {
		t.Fatalf("truncation error %q does not name the opcode", err)
	}

	// A header cut mid-way is distinguishable from a clean EOF.
	fr = newFrameReader(bytes.NewReader(hdr[:2]))
	if _, _, err := fr.ReadFrame(); err == nil || err == io.EOF {
		t.Fatalf("truncated header: err = %v, want unexpected-EOF error", err)
	}
}

func TestCursorOverreadSetsBad(t *testing.T) {
	c := cursor{b: []byte{1, 2, 3}}
	if v := c.u16(); v != 0x0102 {
		t.Fatalf("u16 = %#x", v)
	}
	if v := c.u32(); v != 0 || !c.bad {
		t.Fatalf("overread u32 = %d, bad = %v; want 0, true", v, c.bad)
	}
	// Once bad, everything stays zero and done never reports true.
	if v := c.u64(); v != 0 {
		t.Fatalf("u64 after bad = %d", v)
	}
	if c.done() {
		t.Fatal("done() on a bad cursor")
	}
	if b := c.take(-1); b != nil || !c.bad {
		t.Fatal("negative take did not stay bad")
	}
}

// countingReader counts the Read calls that reach the underlying stream:
// each one is a read(2) on a real connection.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// rawFrame builds one frame by hand, independent of the encoder.
func rawFrame(op byte, payload []byte) []byte {
	b := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(b, uint32(1+len(payload)))
	b[4] = op
	copy(b[headerLen:], payload)
	return b
}

// TestFrameReaderReusesBuffer pins the decoder's allocation discipline: a
// stream of frames must not allocate per frame, whether they fit the read
// buffer (the payload aliases it) or exceed it (the payload lands in one
// reused side buffer, which never exceeds the largest frame seen — itself
// capped by MaxFrame).
func TestFrameReaderReusesBuffer(t *testing.T) {
	small := rawFrame(OpTStoreBatch, bytes.Repeat([]byte{0xab}, 512))
	large := rawFrame(OpTStoreBatch, bytes.Repeat([]byte{0xcd}, 3*readBufSize))
	const frames = 64
	stream := bytes.Repeat(append(append([]byte{}, small...), large...), frames+1)
	fr := newFrameReader(bytes.NewReader(stream))
	read := func() []byte {
		_, p, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if p := read(); len(p) != 512 || fr.buf != nil {
		t.Fatalf("small frame: %d payload bytes, side buffer of %d; want 512 aliasing the read buffer", len(p), cap(fr.buf))
	}
	first := &read()[0]
	if got := testing.AllocsPerRun(frames-1, func() {
		read()
		if p := read(); &p[0] != first {
			t.Fatal("large frame reallocated the side buffer")
		}
	}); got != 0 {
		t.Fatalf("steady-state ReadFrame allocates %.1f allocs per small+large pair, want 0", got)
	}
	if cap(fr.buf) != 3*readBufSize {
		t.Fatalf("side buffer is %d bytes, want the largest payload seen (%d)", cap(fr.buf), 3*readBufSize)
	}
}

// TestFrameReaderBatchesReads: frames the kernel already holds cost one
// Read between them, not two each — the syscall-proportional property the
// serve plane's request cost rests on.
func TestFrameReaderBatchesReads(t *testing.T) {
	var stream []byte
	const frames = 20
	for i := 0; i < frames; i++ {
		stream = append(stream, rawFrame(OpChangeNotify, bytes.Repeat([]byte{byte(i)}, 24))...)
	}
	cr := &countingReader{r: bytes.NewReader(stream)}
	fr := newFrameReader(cr)
	for i := 0; i < frames; i++ {
		op, p, err := fr.ReadFrame()
		if err != nil || op != OpChangeNotify || !bytes.Equal(p, bytes.Repeat([]byte{byte(i)}, 24)) {
			t.Fatalf("frame %d: op %d, payload %x, err %v", i, op, p, err)
		}
	}
	if cr.reads != 1 {
		t.Fatalf("%d frames delivered together took %d Reads, want 1", frames, cr.reads)
	}
	if _, _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("ReadFrame at stream end: %v, want io.EOF", err)
	}
}

// TestFrameReaderFragmentedStream: a stream delivered a byte at a time —
// small frames, a frame larger than the read buffer, then small frames
// again — decodes to the same frames, each payload intact until the next
// ReadFrame, with enough small frames in a row to slide the read buffer.
func TestFrameReaderFragmentedStream(t *testing.T) {
	payload := func(i, n int) []byte {
		b := make([]byte, n)
		for k := range b {
			b[k] = byte(i*31 + k)
		}
		return b
	}
	sizes := []int{0, 1, 100, readBufSize - headerLen, readBufSize - headerLen + 1, 5*readBufSize + 3, 7}
	for i := 0; i < 100; i++ {
		sizes = append(sizes, 90+i) // ~14 KiB of small frames: several buffer refills
	}
	var stream []byte
	for i, n := range sizes {
		stream = append(stream, rawFrame(byte(1+i%10), payload(i, n))...)
	}
	for _, chunk := range []int{1, 7, readBufSize, 1 << 20} {
		fr := newFrameReader(&chunkReader{b: stream, chunk: chunk})
		for i, n := range sizes {
			op, p, err := fr.ReadFrame()
			if err != nil {
				t.Fatalf("chunk %d: frame %d of %d bytes: %v", chunk, i, n, err)
			}
			if op != byte(1+i%10) || !bytes.Equal(p, payload(i, n)) {
				t.Fatalf("chunk %d: frame %d of %d bytes decoded wrong (op %d, %d payload bytes)", chunk, i, n, op, len(p))
			}
		}
		if _, _, err := fr.ReadFrame(); err != io.EOF {
			t.Fatalf("chunk %d: ReadFrame at stream end: %v, want io.EOF", chunk, err)
		}
	}
}

// TestFrameReaderEOFBoundaries: io.EOF means a clean frame boundary and
// nothing else — with read-ahead in play the distinction must survive a
// boundary that falls inside the buffer.
func TestFrameReaderEOFBoundaries(t *testing.T) {
	whole := append(rawFrame(OpBarrier, nil), rawFrame(OpWait, []byte{0, 0, 0, 1})...)
	large := rawFrame(OpRead, make([]byte, 2*readBufSize))
	for _, tc := range []struct {
		name   string
		stream []byte
		frames int
		clean  bool
	}{
		{"exactly on a boundary", whole, 2, true},
		{"one byte into a header", append(append([]byte{}, whole...), 0x00), 2, false},
		{"a whole header, no payload", append(append([]byte{}, whole...), rawFrame(OpWait, []byte{1, 2, 3, 4})[:headerLen]...), 2, false},
		{"inside a small payload", whole[:len(whole)-1], 1, false},
		{"inside a large payload", large[:len(large)-1], 0, false},
		{"after a large payload", large, 1, true},
	} {
		fr := newFrameReader(bytes.NewReader(tc.stream))
		for i := 0; i < tc.frames; i++ {
			if _, _, err := fr.ReadFrame(); err != nil {
				t.Fatalf("%s: frame %d: %v", tc.name, i, err)
			}
		}
		_, _, err := fr.ReadFrame()
		if tc.clean && err != io.EOF {
			t.Errorf("%s: err = %v, want io.EOF", tc.name, err)
		}
		if !tc.clean && (err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF)) {
			t.Errorf("%s: err = %v, want an io.ErrUnexpectedEOF-wrapping error", tc.name, err)
		}
	}
}
