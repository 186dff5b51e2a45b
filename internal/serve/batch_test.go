package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

type batchJSONResponse struct {
	Gen       uint64 `json:"gen"`
	Staleness uint64 `json:"staleness"`
	Degraded  bool   `json:"degraded"`
	Mode      string `json:"mode"`
	Count     int    `json:"count"`
	Results   []struct {
		Src   int   `json:"src"`
		Dst   int   `json:"dst"`
		Paths []int `json:"paths"`
	} `json:"results"`
}

func postBatch(t *testing.T, url, accept string, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/fabrics/edge/paths", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestBatchMatchesSingleQueries: every pair in a batch answer equals
// the single-pair /path answer, in both JSON and binary encodings, and
// K-limiting takes the compiled prefix.
func TestBatchMatchesSingleQueries(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	f := s.Fabric("edge")
	n := f.Topology().NumProcessors()

	var pairs [][]int
	for src := 0; src < n; src += 3 {
		for dst := 0; dst < n; dst += 2 {
			pairs = append(pairs, []int{src, dst})
		}
	}
	body, _ := json.Marshal(map[string]any{"pairs": pairs})

	code, data := postBatch(t, hs.URL, "", string(body))
	if code != 200 {
		t.Fatalf("batch: %d %s", code, data)
	}
	var br batchJSONResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatalf("batch response not JSON: %v\n%s", err, data)
	}
	if br.Count != len(pairs) || len(br.Results) != len(pairs) {
		t.Fatalf("count %d, %d results, want %d", br.Count, len(br.Results), len(pairs))
	}
	if br.Mode != "compiled" || br.Degraded {
		t.Fatalf("mode %q degraded %v on a healthy fabric", br.Mode, br.Degraded)
	}

	// Binary frame for the same batch.
	code, bin := postBatch(t, hs.URL, BinaryBatchContentType, string(body))
	if code != 200 {
		t.Fatalf("binary batch: %d", code)
	}
	fr, err := DecodeBatchFrame(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Paths) != len(pairs) || fr.Gen != br.Gen || fr.Degraded != br.Degraded {
		t.Fatalf("binary frame mismatch: %d pairs gen %d", len(fr.Paths), fr.Gen)
	}

	for i, p := range pairs {
		var pr pathResponse
		getJSON(t, fmt.Sprintf("%s/fabrics/edge/path?src=%d&dst=%d", hs.URL, p[0], p[1]), &pr)
		if br.Results[i].Src != p[0] || br.Results[i].Dst != p[1] {
			t.Fatalf("pair %d: got (%d,%d) want (%d,%d)", i, br.Results[i].Src, br.Results[i].Dst, p[0], p[1])
		}
		if fmt.Sprint(br.Results[i].Paths) != fmt.Sprint(pr.Paths) {
			t.Fatalf("pair (%d,%d): batch %v single %v", p[0], p[1], br.Results[i].Paths, pr.Paths)
		}
		if len(fr.Paths[i]) != len(pr.Paths) {
			t.Fatalf("pair (%d,%d): binary %d paths, single %d", p[0], p[1], len(fr.Paths[i]), len(pr.Paths))
		}
		for j, id := range fr.Paths[i] {
			if int(id) != pr.Paths[j] {
				t.Fatalf("pair (%d,%d) path %d: binary %d single %d", p[0], p[1], j, id, pr.Paths[j])
			}
		}
	}

	// K-limiting: a top-level k and a per-pair k both take the prefix
	// of the unlimited answer (selectors are prefix-nested). d-mod-k
	// is single-path, so use a disjoint-scheme fabric for this part.
	_, hs2 := newTestServer(t, Config{Fabrics: []FabricSpec{
		{Name: "edge", XGFT: "2;4,4;1,4", Scheme: "disjoint", K: 4, Seed: 2012},
	}})
	code, data = postBatch(t, hs2.URL, "", `{"pairs": [[0,7]]}`)
	if code != 200 {
		t.Fatalf("disjoint batch: %d %s", code, data)
	}
	var ur batchJSONResponse
	json.Unmarshal(data, &ur)
	full := ur.Results[0].Paths
	if len(full) < 2 {
		t.Fatalf("disjoint (0,7) should be multipath, got %v", full)
	}
	kbody, _ := json.Marshal(map[string]any{"pairs": [][]int{{0, 7}, {0, 7, 1}}, "k": 2})
	code, data = postBatch(t, hs2.URL, "", string(kbody))
	if code != 200 {
		t.Fatalf("k batch: %d %s", code, data)
	}
	var kr batchJSONResponse
	json.Unmarshal(data, &kr)
	if fmt.Sprint(kr.Results[0].Paths) != fmt.Sprint(full[:2]) {
		t.Errorf("default k=2: got %v want %v", kr.Results[0].Paths, full[:2])
	}
	if fmt.Sprint(kr.Results[1].Paths) != fmt.Sprint(full[:1]) {
		t.Errorf("per-pair k=1: got %v want %v", kr.Results[1].Paths, full[:1])
	}
}

// TestBatchRejections covers the error surface: malformed body,
// empty, oversized, out-of-range endpoints, bad pair arity, bad k —
// and that a rejected batch consumes no fault sequence number and
// writes nothing to the journal.
func TestBatchRejections(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxBatch: 4})
	f := s.Fabric("edge")

	seqBefore := f.ackedSeq.Load()
	recBefore := f.journal.Records()
	rejBefore := met.batchRejected.Value()

	cases := []struct {
		name string
		body string
		code int
		want string
	}{
		{"malformed", `{"pairs": [[0,`, 400, "bad batch body"},
		{"not-json", `hello`, 400, "bad batch body"},
		{"empty", `{"pairs": []}`, 400, "empty batch"},
		{"oversized", `{"pairs": [[0,1],[0,2],[0,3],[0,4],[0,5]]}`, 413, "exceeds the 4-pair limit"},
		{"bad-arity", `{"pairs": [[0,1,2,3]]}`, 400, "want [src,dst]"},
		{"src-out-of-range", `{"pairs": [[16,1]]}`, 400, "out of range"},
		{"dst-negative", `{"pairs": [[0,-1]]}`, 400, "out of range"},
		{"bad-pair-k", `{"pairs": [[0,1,-2]]}`, 400, "bad k"},
		{"bad-default-k", `{"pairs": [[0,1]], "k": -1}`, 400, "bad default k"},
	}
	for _, c := range cases {
		code, data := postBatch(t, hs.URL, "", c.body)
		if code != c.code {
			t.Errorf("%s: code %d want %d (%s)", c.name, code, c.code, data)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, e.Error, c.want)
		}
	}

	if got := f.ackedSeq.Load(); got != seqBefore {
		t.Errorf("rejected batches moved ackedSeq %d -> %d", seqBefore, got)
	}
	if got := f.journal.Records(); got != recBefore {
		t.Errorf("rejected batches wrote journal records %d -> %d", recBefore, got)
	}
	if got := met.batchRejected.Value(); got-rejBefore != int64(len(cases)) {
		t.Errorf("batchRejected moved by %d, want %d", got-rejBefore, len(cases))
	}

	// Unknown fabric 404s before any batch parsing.
	code, _ := postBatch(t, hs.URL, "", `{"pairs": [[0,1]]}`)
	if code != 200 {
		t.Fatalf("valid batch after rejections: %d", code)
	}
	req, _ := http.NewRequest("POST", hs.URL+"/fabrics/nope/paths", strings.NewReader(`{"pairs":[[0,1]]}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown fabric: %d want 404", resp.StatusCode)
	}
}

// TestBatchDuringChurn: a batch answered mid-churn is internally
// consistent — one snapshot answers every pair, and after the fabric
// settles batches agree with the degraded-aware single-pair path.
func TestBatchDuringChurn(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	f := s.Fabric("edge")

	postFault(t, hs.URL, Event{Op: "fail", Kind: "cable", Node: 3, Port: 0})
	waitSettled(t, f)

	body, _ := json.Marshal(map[string]any{"pairs": [][]int{{3, 12}, {0, 7}, {3, 3}}})
	code, data := postBatch(t, hs.URL, "", string(body))
	if code != 200 {
		t.Fatalf("batch: %d %s", code, data)
	}
	var br batchJSONResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if br.Gen != 1 {
		t.Errorf("gen %d, want 1 after one fault", br.Gen)
	}
	for i, p := range [][]int{{3, 12}, {0, 7}, {3, 3}} {
		var pr pathResponse
		getJSON(t, fmt.Sprintf("%s/fabrics/edge/path?src=%d&dst=%d", hs.URL, p[0], p[1]), &pr)
		if fmt.Sprint(br.Results[i].Paths) != fmt.Sprint(pr.Paths) {
			t.Errorf("pair %v: batch %v single %v", p, br.Results[i].Paths, pr.Paths)
		}
	}

	// Binary agrees and carries the degraded flag state.
	code, bin := postBatch(t, hs.URL, BinaryBatchContentType+";q=0.9, application/json;q=0.1", string(body))
	if code != 200 {
		t.Fatalf("binary batch: %d", code)
	}
	fr, err := DecodeBatchFrame(bin)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Gen != br.Gen || fr.Degraded != br.Degraded {
		t.Errorf("binary gen %d degraded %v, JSON gen %d degraded %v", fr.Gen, fr.Degraded, br.Gen, br.Degraded)
	}
}

func TestDecodeBatchFrameErrors(t *testing.T) {
	// Build one good frame to corrupt.
	s, hs := newTestServer(t, Config{})
	_ = s
	code, good := postBatch(t, hs.URL, BinaryBatchContentType, `{"pairs": [[0,7],[1,2]]}`)
	if code != 200 {
		t.Fatalf("batch: %d", code)
	}
	if _, err := DecodeBatchFrame(good); err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		[]byte("XGFB"),                      // too short
		append([]byte("NOPE"), good[4:]...), // wrong magic
		good[:len(good)-1],                  // truncated path id
		append(bytes.Clone(good), 0),        // trailing byte
	}
	wrongVer := bytes.Clone(good)
	wrongVer[4] = 99
	bad = append(bad, wrongVer)
	// A bare header claiming 2³²-1 pairs must be rejected before the
	// decoder allocates for them.
	huge := bytes.Clone(good[:28])
	binary.LittleEndian.PutUint32(huge[24:], ^uint32(0))
	bad = append(bad, huge)
	for i, b := range bad {
		if _, err := DecodeBatchFrame(b); err == nil {
			t.Errorf("corrupt frame %d decoded without error", i)
		}
	}
}

// FuzzDecodeBatchFrame feeds DecodeBatchFrame arbitrary bytes, seeded
// with frames the batch handler wrote (testdata/fuzz/FuzzDecodeBatchFrame:
// healthy and k-limited batches, a self pair, a batch after a fault).
// The decoder must reject with an error or decode, never panic. A
// decoded frame holds exactly the header's pair count, its header
// fields are the frame's, and its pair records tile the rest of the
// input: re-encoding them reproduces the frame byte for byte.
func FuzzDecodeBatchFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeBatchFrame(data)
		if err != nil {
			return
		}
		if got, want := len(fr.Paths), int(binary.LittleEndian.Uint32(data[24:])); got != want {
			t.Fatalf("decoded %d pairs, header claims %d", got, want)
		}
		if fr.Gen != binary.LittleEndian.Uint64(data[8:]) || fr.Staleness != binary.LittleEndian.Uint64(data[16:]) ||
			fr.Degraded != (data[5]&1 != 0) {
			t.Fatalf("decoded header %+v does not match the frame's", fr)
		}
		re := bytes.Clone(data[:28])
		for _, ids := range fr.Paths {
			re = binary.LittleEndian.AppendUint32(re, uint32(len(ids)))
			for _, id := range ids {
				re = binary.LittleEndian.AppendUint32(re, id)
			}
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoded frame differs from the %d decoded bytes", len(data))
		}
	})
}
