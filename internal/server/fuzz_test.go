package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/topk-er/adalsh/internal/server"
)

// fuzzRules are the session rules FuzzHandlers picks from, with the
// field kind each rule reads from field 0: a set, a vector or a
// fingerprint.
var fuzzRules = []struct {
	rule, kind string
}{
	{"jaccard@0 <= 0.6", "set"},
	{"cosine@0 <= 0.2", "vector"},
	{"hamming@0 <= 0.3", "bits"},
	{"l2(4)@0 <= 0.5", "vector"},
}

// fuzzStatuses are the statuses the API documents, plus the router's
// redirect of unclean paths; anything else, a 5xx in particular, means
// a handler failed on client input.
var fuzzStatuses = map[int]bool{
	http.StatusOK: true, http.StatusCreated: true, http.StatusNoContent: true,
	http.StatusMovedPermanently: true,
	http.StatusBadRequest:       true, http.StatusNotFound: true, http.StatusMethodNotAllowed: true,
	http.StatusConflict: true, http.StatusRequestEntityTooLarge: true, http.StatusTooManyRequests: true,
}

// fuzzField renders record i's field of the given kind as wire JSON.
// Bit j of shape varies the layout: bit 0 alternates vector
// dimensions, fingerprint widths and set sizes between records, bit 1
// swaps record 1's field kind, bit 2 gives odd records a second field.
func fuzzField(kind string, i int, shape uint8, salt []byte) string {
	if shape&2 != 0 && i == 1 {
		kind = map[string]string{"set": "vector", "vector": "bits", "bits": "set"}[kind]
	}
	size := 4
	if shape&1 != 0 {
		size += i % 3
	}
	elem := func(j int) int {
		v := i/3 + j
		if len(salt) > 0 {
			v += int(salt[(i+j)%len(salt)]) % 3
		}
		return v
	}
	var b strings.Builder
	switch kind {
	case "set":
		b.WriteString(`{"set":[`)
		for j := range size {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", elem(j))
		}
		b.WriteString(`]}`)
	case "vector":
		b.WriteString(`{"vector":[`)
		for j := range size {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d.5", elem(j)%5)
		}
		b.WriteString(`]}`)
	default:
		fmt.Fprintf(&b, `{"bits":[%d],"width":%d}`, elem(0)*2654435761, 8*size)
	}
	return b.String()
}

// fuzzRecord renders record i as a wire record's fields array.
func fuzzRecord(kind string, i int, shape uint8, salt []byte) string {
	fields := fuzzField(kind, i, shape, salt)
	if shape&4 != 0 && i%2 == 1 {
		fields += "," + fuzzField("set", i, 0, salt)
	}
	return "[" + fields + "]"
}

// FuzzHandlers drives the HTTP API through Server.Handler() with
// httptest recorders, no sockets. Each input creates a session from a
// fuzzed rule, ID and knobs, sends the fuzzed bytes as the body of
// every POST endpoint, ingests a fuzzed batch of records whose layouts
// may disagree with each other and with the rule, and asks for top-k,
// a point lookup, stats, the list and a delete with fuzzed k, khat, m
// and probes values. Request bodies are capped at 2 KiB, so larger
// batches are refused. Every response must carry a status the API
// documents, never a 5xx, and every JSON response must decode; a panic
// fails the input.
func FuzzHandlers(f *testing.F) {
	defer server.SetMaxBodyBytes(2 << 10)()
	f.Add(uint8(0), "s1", []byte(`{"rule":"jaccard@0 <= 0.6"}`), uint8(0), uint8(12), "3", "", int64(3), int64(2))
	f.Add(uint8(1), "v", []byte(`{"records":[{"fields":[{"vector":[1,2]}]}]}`), uint8(1), uint8(10), "2", "4", int64(1), int64(0))
	f.Add(uint8(2), "bits.1", []byte(`{"fields":[{"bits":[7],"width":3}],"m":-1}`), uint8(1), uint8(9), "1", "1", int64(0), int64(5))
	f.Add(uint8(3), "x", []byte(`{`), uint8(6), uint8(40), "-1", "x", int64(-7), int64(-1))
	f.Add(uint8(0), "../etc", []byte(`[]`), uint8(8), uint8(16), "99999999999", "2", int64(1<<40), int64(1<<40))
	f.Fuzz(func(t *testing.T, ruleSel uint8, id string, raw []byte, shape, batch uint8, k, khat string, m, probes int64) {
		sv := server.New(server.Options{QueueDepth: 4})
		h := sv.Handler()
		do := func(method, path string, body []byte) *httptest.ResponseRecorder {
			t.Helper()
			req := httptest.NewRequest(method, "http://fuzz"+path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if !fuzzStatuses[rec.Code] {
				t.Fatalf("%s %q: status %d: %s", method, path, rec.Code, rec.Body.String())
			}
			if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") && !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %q: status %d with a malformed JSON body %q", method, path, rec.Code, rec.Body.String())
			}
			return rec
		}
		rule := fuzzRules[int(ruleSel)%len(fuzzRules)]
		// The session's defaults come from the hostile values too;
		// a session the server refuses leaves the hostile ID to probe.
		create, _ := json.Marshal(server.CreateSessionRequest{
			ID: id, Rule: rule.rule, Seed: 1, Workers: 1, Shards: int(shape>>3) % 3,
			K: int(m), ReturnClusters: int(m >> 16), QueryProbes: int(probes),
		})
		if rec := do("POST", "/v1/sessions", create); rec.Code == http.StatusCreated {
			var info server.SessionInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatalf("create: %v", err)
			}
			id = info.ID
		}
		base := "/v1/sessions/" + url.PathEscape(id)
		do("POST", "/v1/sessions", raw)
		do("POST", base+"/records", raw)
		do("POST", base+"/query", raw)

		n := int(batch % 48)
		var ingest strings.Builder
		ingest.WriteString(`{"records":[`)
		for i := range n {
			if i > 0 {
				ingest.WriteByte(',')
			}
			fmt.Fprintf(&ingest, `{"entity":%d,"fields":%s}`, i/3, fuzzRecord(rule.kind, i, shape, raw))
		}
		ingest.WriteString(`]}`)
		do("POST", base+"/records", []byte(ingest.String()))
		do("POST", base+"/records", []byte(`{"record":{"fields":`+fuzzRecord(rule.kind, n, shape, raw)+`}}`))

		do("GET", base+"/topk?k="+url.QueryEscape(k)+"&khat="+url.QueryEscape(khat), nil)
		query := fmt.Sprintf(`{"fields":%s,"m":%d,"probes":%d}`, fuzzRecord(rule.kind, int(batch), shape, raw), m, probes)
		do("POST", base+"/query", []byte(query))
		do("GET", base+"/stats", nil)
		do("GET", "/v1/sessions", nil)
		do("GET", "/healthz", nil)
		do("DELETE", base, nil)
	})
}
