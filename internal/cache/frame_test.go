package cache

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte(`{"schema":"golclint-cache/v1"}` + "\n"),
		bytes.Repeat([]byte("abcdefgh"), 1<<12),
	} {
		b := frameBlob(raw)
		if !isFramed(b) {
			t.Fatalf("frameBlob output not recognized as framed")
		}
		got, ok := deframeBlob(b)
		if !ok {
			t.Fatalf("round trip failed for %d raw bytes", len(raw))
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("round trip changed payload: %d bytes in, %d out", len(raw), len(got))
		}
	}
}

func TestFrameCompresses(t *testing.T) {
	// Cache entries are JSON: highly repetitive. The frame must beat the raw
	// size on anything resembling a real entry.
	raw := bytes.Repeat([]byte(`{"code":"leak","pos":{"file":"m.c","line":9}}`), 200)
	b := frameBlob(raw)
	if len(b) >= len(raw) {
		t.Errorf("framed %d bytes >= raw %d bytes", len(b), len(raw))
	}
}

// Every malformed frame must deframe to a miss — never a panic, never a
// partial payload.
func TestDeframeRejectsCorruption(t *testing.T) {
	raw := []byte(`{"schema":"golclint-cache/v1","key":"abc"}`)
	good := frameBlob(raw)

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := map[string][]byte{
		"empty":       nil,
		"short":       good[:frameHeader-1],
		"bad-magic":   mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"no-payload":  good[:frameHeader],
		"extra-bytes": append(append([]byte(nil), good...), 0x00),
		"flip-payload": mutate(func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}),
		"flip-checksum": mutate(func(b []byte) []byte {
			b[len(frameMagic)+16] ^= 0x01
			return b
		}),
		"raw-len-low": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(frameMagic):], uint64(len(raw)-1))
			return b
		}),
		"raw-len-high": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(frameMagic):], uint64(len(raw)+1))
			return b
		}),
		"raw-len-huge": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(frameMagic):], maxFrameBytes+1)
			return b
		}),
		"comp-len-huge": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(frameMagic)+8:], maxFrameBytes+1)
			return b
		}),
		"not-flate": func() []byte {
			// Valid header and checksum over a payload that is not a
			// flate stream (rawLen disagreeing with whatever it inflates
			// to also rejects it).
			junk := []byte("definitely not flate data")
			b := frameBlob(raw)[:frameHeader]
			binary.LittleEndian.PutUint64(b[len(frameMagic)+8:], uint64(len(junk)))
			sum := sha256.Sum256(junk)
			copy(b[len(frameMagic)+16:], sum[:])
			return append(b, junk...)
		}(),
	}
	for name, b := range cases {
		if got, ok := deframeBlob(b); ok {
			t.Errorf("%s: deframed corrupt blob to %d bytes", name, len(got))
		}
	}

	if got, ok := deframeBlob(good); !ok || !bytes.Equal(got, raw) {
		t.Fatal("control: good frame failed to deframe")
	}
}

// frameEntry returns an n-byte entry shaped like cache JSON, varied by
// seed so that distinct entries compress differently.
func frameEntry(n, seed int) []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, `{"code":"leak","pos":{"file":"m%d.c","line":%d},"fn":"f%d"}`, seed, i*7+seed, i%13)
	}
	return b.Bytes()[:n]
}

// referenceFrame frames raw with a freshly made compressor, the way every
// frame was written before codecs were pooled.
func referenceFrame(raw []byte) []byte {
	var comp bytes.Buffer
	zw, _ := flate.NewWriterDict(&comp, flate.BestCompression, []byte(frameDict))
	zw.Write(raw)
	zw.Close()
	out := append([]byte(frameMagic), make([]byte, 16)...)
	binary.LittleEndian.PutUint64(out[len(frameMagic):], uint64(len(raw)))
	binary.LittleEndian.PutUint64(out[len(frameMagic)+8:], uint64(comp.Len()))
	sum := sha256.Sum256(comp.Bytes())
	return append(append(out, sum[:]...), comp.Bytes()...)
}

// A pooled, reset writer produces the same bytes as a fresh one, whatever
// it compressed before: caches written before pooling stay warm.
func TestFrameMatchesFreshWriter(t *testing.T) {
	for round := 0; round < 2; round++ {
		for _, n := range []int{0, 1, 200, 4096, 64 << 10, 70 << 10, 200 << 10} {
			raw := frameEntry(n, n+round)
			if got, want := frameBlob(raw), referenceFrame(raw); !bytes.Equal(got, want) {
				t.Fatalf("round %d, %d bytes: pooled frame differs from a fresh writer's (%d vs %d bytes)",
					round, n, len(got), len(want))
			}
		}
	}
}

// freshDeframe decodes a frame's payload with a freshly made reader,
// the way every frame was read before codecs were pooled.
func freshDeframe(b []byte) ([]byte, bool) {
	zr := flate.NewReaderDict(bytes.NewReader(b[frameHeader:]), []byte(frameDict))
	got, err := io.ReadAll(zr)
	return got, err == nil && uint64(len(got)) == binary.LittleEndian.Uint64(b[len(frameMagic):])
}

// resigned returns good's frame with payload in place of its own, with
// the compressed length and checksum fixed up: only the DEFLATE stream
// differs.
func resigned(good, payload []byte) []byte {
	b := append(append([]byte(nil), good[:frameHeader]...), payload...)
	binary.LittleEndian.PutUint64(b[len(frameMagic)+8:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(b[len(frameMagic)+16:], sum[:])
	return b
}

// A reader put back after a corrupt stream decodes the next good frame:
// the reset after an error leaves no state behind.
func TestDeframeRecoversAfterCorruptStream(t *testing.T) {
	raw := frameEntry(5000, 1)
	good := frameBlob(raw)
	comp := good[frameHeader:]
	// Bits flipped at a spread of payload offsets, and a block of the
	// invalid type 3. Some flips still inflate to rawLen bytes (a changed
	// literal); the pooled reader must then agree with a fresh one.
	damaged := [][]byte{resigned(good, []byte{0xff, 0xff, 0xff, 0xff})}
	for i := 0; i < 64; i++ {
		payload := append([]byte(nil), comp...)
		payload[(i*len(comp))/64] ^= 0x5a
		damaged = append(damaged, resigned(good, payload))
	}
	misses := 0
	for i, bad := range damaged {
		want, wantOK := freshDeframe(bad)
		got, ok := deframeBlob(bad)
		if ok != wantOK || (ok && !bytes.Equal(got, want)) {
			t.Fatalf("damaged frame %d: pooled reader gives ok=%v, a fresh reader ok=%v", i, ok, wantOK)
		}
		if !ok {
			misses++
		}
		if got, ok := deframeBlob(good); !ok || !bytes.Equal(got, raw) {
			t.Fatalf("good frame failed to deframe after damaged frame %d", i)
		}
	}
	if misses == 0 {
		t.Fatal("no damaged frame read as a miss; the test exercises nothing")
	}
}

// Concurrent framing and deframing through the shared pools matches a
// serial reference (run under -race in CI).
func TestFrameConcurrent(t *testing.T) {
	const workers, per = 8, 20
	var want [workers][per][]byte
	for w := range want {
		for i := range want[w] {
			want[w][i] = referenceFrame(frameEntry(100+w*517+i*97, w*per+i))
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				raw := frameEntry(100+w*517+i*97, w*per+i)
				b := frameBlob(raw)
				if !bytes.Equal(b, want[w][i]) {
					errs[w] = fmt.Errorf("worker %d entry %d: frame differs from the serial reference", w, i)
					return
				}
				if got, ok := deframeBlob(b); !ok || !bytes.Equal(got, raw) {
					errs[w] = fmt.Errorf("worker %d entry %d: round trip failed", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// allocPerCall returns the bytes f allocates per call, averaged over n
// calls after one warm-up call.
func allocPerCall(n int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// Pooled codecs keep a small entry's framing cost near its own size: a
// fresh BestCompression writer allocates about 800 KiB and a fresh reader
// about 40 KiB.
func TestFrameAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	raw := frameEntry(200, 3)
	framed := frameBlob(raw)
	frame := allocPerCall(50, func() { frameBlob(raw) })
	deframe := allocPerCall(50, func() { deframeBlob(framed) })
	t.Logf("bytes allocated per 200-byte entry: frameBlob %d, deframeBlob %d", frame, deframe)
	if frame > 64<<10 {
		t.Errorf("frameBlob allocates %d bytes per 200-byte entry, want <= %d", frame, 64<<10)
	}
	if deframe > 16<<10 {
		t.Errorf("deframeBlob allocates %d bytes per 200-byte entry, want <= %d", deframe, 16<<10)
	}
}

// A frame's header lengths are outside the checksum. A frame that
// advertises the largest raw length over a tiny valid payload reads as a
// miss without allocating anything near what it advertises.
func TestDeframeForgedLengthAllocatesNothing(t *testing.T) {
	b := frameBlob([]byte("{}\n"))
	binary.LittleEndian.PutUint64(b[len(frameMagic):], maxFrameBytes)
	deframeBlob(frameBlob(nil)) // warm the reader pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := deframeBlob(b)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("frame with a forged raw length deframed")
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("forged %d-byte frame allocated %d bytes", len(b), got)
	if got >= 1<<20 {
		t.Errorf("forged %d-byte frame allocated %d bytes, want < 1 MiB", len(b), got)
	}
}
