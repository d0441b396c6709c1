package cache

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"sync"
)

// Blob framing. Every entry persisted on disk or shipped over the blob
// protocol travels inside a self-verifying frame:
//
//	magic   "glcb1\n"            (6 bytes)
//	rawLen  uint64 little-endian (decompressed payload length)
//	compLen uint64 little-endian (compressed payload length)
//	sum     sha256(compressed)   (32 bytes)
//	payload flate(entry wire bytes, preset dict frameDict), compLen bytes
//
// The payload is a raw DEFLATE stream primed with the frameDict preset
// dictionary (see frame_dict.go): cache entries are small and share most
// of their bytes with every other entry, which a per-entry compressor
// cannot exploit but a preset dictionary can.
//
// The checksum covers the compressed payload only, so a frame corrupted
// anywhere in its payload — on disk, in a proxy, by a truncated read — is
// detected before any decompression happens. The header's lengths are not
// covered: rawLen is checked against what the payload inflates to, and no
// buffer is ever sized from it. Deframing shares the cache's robustness
// contract: every malformed frame reads as a miss, never an error, so a
// hostile or broken blob server can only make runs slower, not wrong.
//
// A BestCompression DEFLATE writer allocates about 800 KiB and a reader
// about 40 KiB, far more than a typical entry. Both are pooled and reset
// per frame; a reset keeps the level and the preset dictionary, so pooled
// frames are byte-identical to freshly compressed ones.
const (
	frameMagic  = "glcb1\n"
	frameHeader = len(frameMagic) + 8 + 8 + sha256.Size

	// maxFrameBytes bounds what deframeBlob will touch: a frame advertising
	// more is treated as corrupt rather than read. Far above any real entry
	// (the largest observed entries are single-digit MB).
	maxFrameBytes = 256 << 20
)

// A frameWriter is a pooled DEFLATE writer together with the sink it
// compresses into: the frame under construction, which is nil while the
// writer sits in the pool. Owning the sink spares a second Reset before
// the writer goes back, which would clear its 640 KiB of hash tables
// again.
type frameWriter struct {
	zw  *flate.Writer
	out []byte
}

func (fw *frameWriter) Write(p []byte) (int, error) {
	fw.out = append(fw.out, p...)
	return len(p), nil
}

// frameWriters and frameReaders hold idle frame codecs. A writer's sink is
// emptied and a reader is reset to an empty source before either is put
// back, so an idle codec holds no caller buffer.
var (
	frameWriters = sync.Pool{New: func() any {
		fw := &frameWriter{}
		fw.zw, _ = flate.NewWriterDict(fw, flate.BestCompression, dictBytes)
		return fw
	}}
	frameReaders = sync.Pool{New: func() any {
		return flate.NewReaderDict(noInput, dictBytes)
	}}
	// noInput is the source an idle reader points at. It is never read.
	noInput = bytes.NewReader(nil)
	// dictBytes is frameDict converted once; codecs copy it, never write it.
	dictBytes = []byte(frameDict)
)

// frameBlob wraps raw entry bytes in the compressed, checksummed wire
// frame. It never fails: flate over a byte slice cannot error.
func frameBlob(raw []byte) []byte {
	fw := frameWriters.Get().(*frameWriter)
	fw.out = make([]byte, frameHeader, frameHeader+len(raw))
	fw.zw.Reset(fw)
	fw.zw.Write(raw)
	fw.zw.Close()
	out := fw.out
	fw.out = nil
	frameWriters.Put(fw)

	comp := out[frameHeader:]
	copy(out, frameMagic)
	binary.LittleEndian.PutUint64(out[len(frameMagic):], uint64(len(raw)))
	binary.LittleEndian.PutUint64(out[len(frameMagic)+8:], uint64(len(comp)))
	sum := sha256.Sum256(comp)
	copy(out[len(frameMagic)+16:], sum[:])
	return out
}

// deframeBlob unwraps a frame produced by frameBlob, verifying magic,
// lengths, and checksum before decompressing and the decompressed length
// after. Any mismatch returns ok=false; it never panics and never returns
// a partial payload.
func deframeBlob(b []byte) (raw []byte, ok bool) {
	if len(b) < frameHeader || string(b[:len(frameMagic)]) != frameMagic {
		return nil, false
	}
	rawLen := binary.LittleEndian.Uint64(b[len(frameMagic):])
	compLen := binary.LittleEndian.Uint64(b[len(frameMagic)+8:])
	if rawLen > maxFrameBytes || compLen > maxFrameBytes {
		return nil, false
	}
	sum := b[len(frameMagic)+16 : frameHeader]
	comp := b[frameHeader:]
	if uint64(len(comp)) != compLen {
		return nil, false
	}
	if sha256.Sum256(comp) != [sha256.Size]byte(sum) {
		return nil, false
	}
	zr := frameReaders.Get().(io.ReadCloser)
	zr.(flate.Resetter).Reset(bytes.NewReader(comp), dictBytes)
	// Read one byte past the advertised length so a payload that is longer
	// than declared is caught, not silently truncated. The buffer grows
	// with what actually inflates, never with the unverified rawLen.
	buf, err := io.ReadAll(io.LimitReader(zr, int64(rawLen)+1))
	zr.(flate.Resetter).Reset(noInput, nil)
	frameReaders.Put(zr)
	if err != nil || uint64(len(buf)) != rawLen {
		return nil, false
	}
	return buf, true
}

// isFramed reports whether b begins with the frame magic (used to keep
// reading entries written before compression existed: those decode as bare
// JSON).
func isFramed(b []byte) bool {
	return len(b) >= len(frameMagic) && string(b[:len(frameMagic)]) == frameMagic
}
