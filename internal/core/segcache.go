package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"
)

// SegmentCache is an on-disk store of compiled routing segments. Each
// segment is one file named by the FNV hash of its cache key (see
// BlockCompiledRouting: topology, scheme, K, seed, block size) plus
// the segment index; the full key is embedded in the header and
// verified on load, so hash collisions and parameter changes read as
// misses, never as wrong data. Files are written via temp + rename, so
// a crashed writer cannot leave a truncated file under the final name
// — and even if one appears, the size checks below reject it.
//
// Array payloads are stored in host byte order and memory-mapped back
// where the platform supports it (a sentinel word detects a
// foreign-endian file and degrades it to a miss). A cache directory is
// therefore a per-machine artifact, exactly like the benchmark records
// it accelerates.
type SegmentCache struct {
	dir      string
	maxBytes atomic.Int64
}

// OpenSegmentCache opens (creating if needed) a segment cache rooted
// at dir.
func OpenSegmentCache(dir string) (*SegmentCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: segment cache needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: segment cache: %w", err)
	}
	return &SegmentCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *SegmentCache) Dir() string { return c.dir }

// SetMaxBytes caps the cache's on-disk footprint; each write beyond the
// cap evicts the oldest records (by modification time) until the total
// fits again. Zero, the default, means unbounded. Readers that already
// opened an evicted record keep a valid view — eviction unlinks the
// name, and the pages live until the reader's mapping drops.
func (c *SegmentCache) SetMaxBytes(n int64) { c.maxBytes.Store(n) }

const (
	segMagic    = "XGFTSEG1"
	segSentinel = uint32(0x01020304) // written in host order: detects endian mismatch
	// Fixed header: magic(8) keyLen(4) segIdx(4) srcLo(8) srcHi(8)
	// nOff(8) nPathIdx(8) nLinks(8), then the key, padded to 8, then
	// the sentinel word padded to 8.
	segFixedHeader = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8
)

func align8(x int) int { return (x + 7) &^ 7 }

// path names the file for (key, segment index).
func (c *SegmentCache) path(key string, g int) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(c.dir, fmt.Sprintf("%016x-%06d.seg", h.Sum64(), g))
}

// segTmpCounter distinguishes temp files created by this process.
var segTmpCounter atomic.Uint64

// tempFile creates a segment scratch file under an O_CREAT|O_EXCL name
// unique across processes (pid) and within this process (a counter):
// two writers persisting the same segment key — even from different
// processes sharing the cache directory — can never interleave writes
// on a shared temp path, because each owns its file exclusively until
// the atomic rename. A leftover name from a crashed predecessor that
// recycled our pid reads as EEXIST and is skipped, never reused.
func (c *SegmentCache) tempFile() (*os.File, error) {
	for attempts := 0; attempts < 1000; attempts++ {
		name := filepath.Join(c.dir, fmt.Sprintf("seg-%d-%d.tmp", os.Getpid(), segTmpCounter.Add(1)))
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		return f, err
	}
	return nil, fmt.Errorf("core: segment cache: cannot create a unique temp file in %s", c.dir)
}

// store writes the segment atomically. Concurrent writers of the same
// segment race benignly: each writes its own exclusively-owned temp
// file (see tempFile), both produce identical bytes and the last
// rename wins.
func (c *SegmentCache) store(key string, g int, s *RoutingSegment) error {
	hdr := buildSegHeader(key, g, s)
	tmp, err := c.tempFile()
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	for _, chunk := range [][]byte{hdr, int64Bytes(s.pathOff), int64Bytes(s.linkOff), int32Bytes(s.pathIdx), int32Bytes(s.links)} {
		if _, err := tmp.Write(chunk); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp.Name(), c.path(key, g)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	c.evict()
	return nil
}

// evict enforces the optional size cap: when the cache's record files
// exceed maxBytes, the oldest-modified are unlinked until the total
// fits. Unlinking never disturbs a record mid-read — an open file or
// live mapping keeps its pages until dropped — and the record just
// written is the newest, so a cap large enough for one record never
// evicts it.
func (c *SegmentCache) evict() {
	max := c.maxBytes.Load()
	if max <= 0 {
		return
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type rec struct {
		name  string
		size  int64
		mtime int64
	}
	var recs []rec
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		recs = append(recs, rec{name, fi.Size(), fi.ModTime().UnixNano()})
		total += fi.Size()
	}
	if total <= max {
		return
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].mtime < recs[j].mtime })
	for _, r := range recs {
		if total <= max {
			break
		}
		if os.Remove(filepath.Join(c.dir, r.name)) == nil {
			total -= r.size
		}
	}
}

// buildSegHeader assembles the header block (fixed fields, key,
// sentinel), padded so the arrays that follow start 8-byte aligned.
func buildSegHeader(key string, g int, s *RoutingSegment) []byte {
	n := align8(segFixedHeader+len(key)) + 8
	hdr := make([]byte, n)
	copy(hdr, segMagic)
	le := binary.LittleEndian
	le.PutUint32(hdr[8:], uint32(len(key)))
	le.PutUint32(hdr[12:], uint32(g))
	le.PutUint64(hdr[16:], uint64(s.srcLo))
	le.PutUint64(hdr[24:], uint64(s.srcHi))
	le.PutUint64(hdr[32:], uint64(len(s.pathOff)))
	le.PutUint64(hdr[40:], uint64(len(s.pathIdx)))
	le.PutUint64(hdr[48:], uint64(len(s.links)))
	copy(hdr[segFixedHeader:], key)
	*(*uint32)(unsafe.Pointer(&hdr[n-8])) = segSentinel // host order on purpose
	return hdr
}

// load fetches (key, g) if present and valid, returning a segment that
// aliases the mapping (or a heap copy on platforms without mmap).
// Every failure mode — absent, truncated, foreign key, foreign endian,
// stale spans — is a miss: the caller recompiles and overwrites.
func (c *SegmentCache) load(key string, g, wantLo, wantHi, n int) (*RoutingSegment, bool) {
	path := c.path(key, g)
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() > int64(int(^uint(0)>>1)) {
		return nil, false
	}
	size := int(st.Size())
	if size < segFixedHeader+8 {
		return nil, false
	}
	data, mapped, err := readSegFile(f, size)
	if err != nil {
		return nil, false
	}
	drop := func() (*RoutingSegment, bool) {
		if mapped != nil {
			munmapFile(mapped)
		}
		return nil, false
	}
	if string(data[:8]) != segMagic {
		return drop()
	}
	le := binary.LittleEndian
	keyLen := int(le.Uint32(data[8:]))
	segIdx := int(le.Uint32(data[12:]))
	srcLo := int(le.Uint64(data[16:]))
	srcHi := int(le.Uint64(data[24:]))
	nOff := int(le.Uint64(data[32:]))
	nPathIdx := int(le.Uint64(data[40:]))
	nLinks := int(le.Uint64(data[48:]))
	hdrLen := align8(segFixedHeader+keyLen) + 8
	if keyLen != len(key) || hdrLen > size || string(data[segFixedHeader:segFixedHeader+keyLen]) != key {
		return drop()
	}
	var sent [4]byte
	*(*uint32)(unsafe.Pointer(&sent[0])) = segSentinel
	if !bytes.Equal(data[hdrLen-8:hdrLen-4], sent[:]) {
		return drop() // written on a foreign-endian machine
	}
	rows := (wantHi - wantLo) * n
	if segIdx != g || srcLo != wantLo || srcHi != wantHi || nOff != rows+1 ||
		nPathIdx < 0 || nLinks < 0 || size != hdrLen+16*nOff+4*nPathIdx+4*nLinks {
		return drop()
	}
	off := hdrLen
	pathOff, ok1 := sliceInt64(data[off:], nOff)
	off += 8 * nOff
	linkOff, ok2 := sliceInt64(data[off:], nOff)
	off += 8 * nOff
	pathIdx, ok3 := sliceInt32(data[off:], nPathIdx)
	off += 4 * nPathIdx
	links, ok4 := sliceInt32(data[off:], nLinks)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return drop()
	}
	s := &RoutingSegment{
		index: g, srcLo: srcLo, srcHi: srcHi, n: n,
		pathOff: pathOff, linkOff: linkOff, pathIdx: pathIdx, links: links,
		mapped: mapped,
	}
	s.bytes = s.Bytes()
	return s, true
}

// forceHeapSegments, when set, makes readSegFile skip the mmap path so
// tests exercise the heap fallback (mmap_other.go's behavior) on every
// platform, build tags notwithstanding.
var forceHeapSegments atomic.Bool

// readSegFile maps the file when the platform supports it and falls
// back to reading it onto the heap otherwise; the second return is the
// mapping to hand to munmapFile, nil for the heap path.
func readSegFile(f *os.File, size int) (data, mapped []byte, err error) {
	if !forceHeapSegments.Load() {
		if m, err := mmapFile(f, size); err == nil {
			return m, m, nil
		}
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, nil, err
	}
	return buf, nil, nil
}

// int64Bytes views a []int64 as raw bytes (host order) for writing.
func int64Bytes(a []int64) []byte {
	if len(a) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), 8*len(a))
}

// int32Bytes views a []int32 as raw bytes (host order) for writing.
func int32Bytes(a []int32) []byte {
	if len(a) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), 4*len(a))
}

// sliceInt64 views the first n int64s of b without copying when the
// base is 8-byte aligned (mmap bases are page-aligned and the layout
// pads to 8, so this is the normal case) and copies otherwise.
func sliceInt64(b []byte, n int) ([]int64, bool) {
	if n == 0 {
		return nil, true
	}
	if len(b) < 8*n {
		return nil, false
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%8 == 0 {
		return unsafe.Slice((*int64)(p), n), true
	}
	out := make([]int64, n)
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), 8*n), b)
	return out, true
}

// sliceInt32 is sliceInt64 for int32 payloads.
func sliceInt32(b []byte, n int) ([]int32, bool) {
	if n == 0 {
		return nil, true
	}
	if len(b) < 4*n {
		return nil, false
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%4 == 0 {
		return unsafe.Slice((*int32)(p), n), true
	}
	out := make([]int32, n)
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), 4*n), b)
	return out, true
}
