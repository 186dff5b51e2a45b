package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Batch query API: POST /fabrics/{name}/paths answers up to MaxBatch
// (src, dst[, k]) triples in one round trip, so one request amortizes
// connection handling, routing-table pinning (one atomic snapshot for
// the whole batch) and encoding across thousands of pairs.
//
// Request body (JSON):
//
//	{"pairs": [[0,5], [3,7,2], ...], "k": 0}
//
// Each pair is [src, dst] or [src, dst, k]; the optional top-level
// "k" is the default path limit for pairs without their own (0 = all
// compiled paths). Because every built-in selector is prefix-nested
// (core.PrefixNested), the first k compiled indices ARE the pair's
// K-limited path set, so limiting costs a slice bound, not a reroute.
//
// The whole batch is validated before any answer is produced: a
// malformed body, an out-of-range endpoint or a bad k rejects the
// batch (400; 413 when oversized) without consuming any server state —
// batch queries never touch the fault sequence numbers.
//
// Responses are streamed. The default encoding is JSON:
//
//	{"gen":3,"staleness":0,"degraded":false,"mode":"compiled","count":2,
//	 "results":[{"src":0,"dst":5,"paths":[..]}, ...]}
//
// A client that sends Accept: application/x-xgft-batch gets the
// compact binary frame instead (little-endian):
//
//	offset 0  magic "XGFB"
//	       4  version  uint8 = 1
//	       5  flags    uint8 (bit0 = degraded)
//	       6  reserved uint16 = 0
//	       8  gen       uint64
//	      16  staleness uint64
//	      24  count     uint32
//	      28  per pair: npaths uint32, then npaths × uint32 path ids
//
// npaths == 0 for a disconnected (or self) pair. The frame holds
// exactly count pair records in request order.

// BinaryBatchContentType is the negotiated compact encoding of the
// batch path endpoint.
const BinaryBatchContentType = "application/x-xgft-batch"

// binaryBatchVersion is stamped into every binary frame.
const binaryBatchVersion = 1

// batchRequest is the decoded POST /fabrics/{name}/paths body.
type batchRequest struct {
	Pairs [][]int `json:"pairs"`
	K     int     `json:"k"`
}

// batchFlushBytes bounds how much response accumulates in the pooled
// buffer before it is flushed to the client mid-batch.
const batchFlushBytes = 64 << 10

func (s *Server) handleBatchPaths(w http.ResponseWriter, r *http.Request, f *Fabric) {
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<24))
	if err := dec.Decode(&req); err != nil {
		met.batchRejected.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad batch body: %v", err)})
		return
	}
	if len(req.Pairs) == 0 {
		met.batchRejected.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{"empty batch: want pairs [[src,dst],...]"})
		return
	}
	if len(req.Pairs) > s.cfg.MaxBatch {
		met.batchRejected.Inc()
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{fmt.Sprintf("batch of %d pairs exceeds the %d-pair limit", len(req.Pairs), s.cfg.MaxBatch)})
		return
	}
	n := f.topo.NumProcessors()
	if req.K < 0 {
		met.batchRejected.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad default k %d", req.K)})
		return
	}
	// Validate the whole batch up front: rejection is all-or-nothing,
	// so a client never has to pick partial answers out of an error.
	for i, p := range req.Pairs {
		if len(p) != 2 && len(p) != 3 {
			met.batchRejected.Inc()
			writeJSON(w, http.StatusBadRequest,
				errorBody{fmt.Sprintf("pair %d: want [src,dst] or [src,dst,k], got %d elements", i, len(p))})
			return
		}
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			met.batchRejected.Inc()
			writeJSON(w, http.StatusBadRequest,
				errorBody{fmt.Sprintf("pair %d: endpoints (%d,%d) out of range [0,%d)", i, p[0], p[1], n)})
			return
		}
		if len(p) == 3 && p[2] < 0 {
			met.batchRejected.Inc()
			writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("pair %d: bad k %d", i, p[2])})
			return
		}
	}

	met.batchQueries.Inc()
	met.batchPairs.Add(int64(len(req.Pairs)))
	st := f.State() // one pinned snapshot answers the whole batch
	if st.degraded {
		met.degradedResponses.Inc()
	}
	if acceptsBinaryBatch(r.Header.Get("Accept")) {
		s.writeBatchBinary(w, f, st, req)
		return
	}
	s.writeBatchJSON(w, f, st, req)
}

// acceptsBinaryBatch reports whether the Accept header asks for the
// compact frame (an exact media-type match anywhere in the list).
func acceptsBinaryBatch(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		part = strings.TrimSpace(part)
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = strings.TrimSpace(part[:i])
		}
		if part == BinaryBatchContentType {
			return true
		}
	}
	return false
}

// batchPaths resolves one pair's path indices against the pinned
// snapshot, appending them as int32 into idxBuf (reused across pairs);
// k == 0 means no limit.
func (f *Fabric) batchPaths(st *fabState, src, dst, k int, idxBuf []int32) []int32 {
	idxBuf = idxBuf[:0]
	switch {
	case src == dst:
	case st.rep != nil && (st.degraded || st.table == nil):
		for _, p := range st.rep.Paths(src, dst) {
			idxBuf = append(idxBuf, int32(p))
		}
	case st.table != nil:
		idxBuf = append(idxBuf, st.table.PathIndices(src, dst)...)
	default:
		for _, p := range f.routing.Paths(src, dst) {
			idxBuf = append(idxBuf, int32(p))
		}
	}
	if k > 0 && len(idxBuf) > k {
		idxBuf = idxBuf[:k]
	}
	return idxBuf
}

func pairK(p []int, defaultK int) int {
	if len(p) == 3 {
		return p[2]
	}
	return defaultK
}

func (s *Server) writeBatchJSON(w http.ResponseWriter, f *Fabric, st *fabState, req batchRequest) {
	setJSONContentType(w)
	w.WriteHeader(http.StatusOK)
	rb := bufPool.Get().(*respBuf)
	b := rb.b[:0]
	var idxBuf []int32
	b = append(b, `{"gen":`...)
	b = strconv.AppendUint(b, st.gen, 10)
	b = append(b, `,"staleness":`...)
	b = strconv.AppendUint(b, f.ackedSeq.Load()-st.gen, 10)
	b = append(b, `,"degraded":`...)
	b = appendBool(b, st.degraded)
	b = append(b, `,"mode":"`...)
	b = append(b, f.Mode()...)
	b = append(b, `","count":`...)
	b = strconv.AppendInt(b, int64(len(req.Pairs)), 10)
	b = append(b, `,"results":[`...)
	for i, p := range req.Pairs {
		if i > 0 {
			b = append(b, ',')
		}
		src, dst := p[0], p[1]
		idxBuf = f.batchPaths(st, src, dst, pairK(p, req.K), idxBuf)
		b = append(b, `{"src":`...)
		b = strconv.AppendInt(b, int64(src), 10)
		b = append(b, `,"dst":`...)
		b = strconv.AppendInt(b, int64(dst), 10)
		b = append(b, `,"paths":[`...)
		b, _ = appendInt32List(b, idxBuf)
		b = append(b, `]}`...)
		if len(b) >= batchFlushBytes {
			if _, err := w.Write(b); err != nil {
				met.batchAborted.Inc()
				rb.b = b[:0]
				bufPool.Put(rb)
				return
			}
			b = b[:0]
		}
	}
	b = append(b, `]}`...)
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		met.batchAborted.Inc()
	}
	rb.b = b[:0]
	bufPool.Put(rb)
}

var binaryCT = []string{BinaryBatchContentType}

func (s *Server) writeBatchBinary(w http.ResponseWriter, f *Fabric, st *fabState, req batchRequest) {
	h := w.Header()
	if len(h["Content-Type"]) == 0 {
		h["Content-Type"] = binaryCT
	}
	w.WriteHeader(http.StatusOK)
	rb := bufPool.Get().(*respBuf)
	b := rb.b[:0]
	var idxBuf []int32
	b = append(b, "XGFB"...)
	b = append(b, binaryBatchVersion)
	var flags byte
	if st.degraded {
		flags |= 1
	}
	b = append(b, flags, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, st.gen)
	b = binary.LittleEndian.AppendUint64(b, f.ackedSeq.Load()-st.gen)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.Pairs)))
	for _, p := range req.Pairs {
		idxBuf = f.batchPaths(st, p[0], p[1], pairK(p, req.K), idxBuf)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(idxBuf)))
		for _, id := range idxBuf {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
		}
		if len(b) >= batchFlushBytes {
			if _, err := w.Write(b); err != nil {
				met.batchAborted.Inc()
				rb.b = b[:0]
				bufPool.Put(rb)
				return
			}
			b = b[:0]
		}
	}
	if _, err := w.Write(b); err != nil {
		met.batchAborted.Inc()
	}
	rb.b = b[:0]
	bufPool.Put(rb)
}

// BatchFrame is a decoded binary batch response (client-side helper
// for the load generator and tests).
type BatchFrame struct {
	Gen       uint64
	Staleness uint64
	Degraded  bool
	Paths     [][]uint32 // per requested pair, in request order
}

// DecodeBatchFrame parses a binary batch response frame.
func DecodeBatchFrame(data []byte) (*BatchFrame, error) {
	if len(data) < 28 || string(data[:4]) != "XGFB" {
		return nil, fmt.Errorf("serve: not a batch frame (%d bytes)", len(data))
	}
	if data[4] != binaryBatchVersion {
		return nil, fmt.Errorf("serve: batch frame version %d, want %d", data[4], binaryBatchVersion)
	}
	fr := &BatchFrame{
		Degraded:  data[5]&1 != 0,
		Gen:       binary.LittleEndian.Uint64(data[8:]),
		Staleness: binary.LittleEndian.Uint64(data[16:]),
	}
	count := binary.LittleEndian.Uint32(data[24:])
	off := 28
	// Every pair record takes at least 4 bytes; bound the claimed count
	// by the frame size before allocating for it.
	if count > uint32(len(data)-off)/4 {
		return nil, fmt.Errorf("serve: batch frame claims %d pairs beyond frame end", count)
	}
	fr.Paths = make([][]uint32, 0, count)
	for i := uint32(0); i < count; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("serve: batch frame truncated at pair %d", i)
		}
		np := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if np > uint32(len(data)-off)/4 {
			return nil, fmt.Errorf("serve: batch frame pair %d claims %d paths beyond frame end", i, np)
		}
		ids := make([]uint32, np)
		for j := range ids {
			ids[j] = binary.LittleEndian.Uint32(data[off:])
			off += 4
		}
		fr.Paths = append(fr.Paths, ids)
	}
	if off != len(data) {
		return nil, fmt.Errorf("serve: %d trailing bytes after batch frame", len(data)-off)
	}
	return fr, nil
}
