package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	lazyxml "repro"
)

// FuzzBatchBody drives POST /batch with arbitrary bodies over an
// in-memory collection holding one document. Whatever the body, the
// handler must not panic and must answer 200, 400 or 413; a 200 must
// account for every op: one result per op, failed counting exactly the
// results that are not ok, and each of those carrying an error status.
func FuzzBatchBody(f *testing.F) {
	for _, seed := range []string{
		`{"ops":[{"op":"put","doc":"new","text":"<n><m/></n>"}]}`,
		`{"ops":[{"op":"delete","doc":"d"}]}`,
		`{"ops":[{"op":"insert","doc":"d","off":3,"text":"<x/>"}]}`,
		`{"ops":[{"op":"remove","doc":"d","off":3,"len":4}]}`,
		`{"ops":[{"op":"removeElement","doc":"d","off":3}]}`,
		`{"ops":[{"op":"insert","doc":"d","off":3,"text":"<x/>"},{"op":"removeElement","doc":"d","off":3},{"op":"put","doc":"d","text":"<r/>"}]}`,
		``,
		`{"ops":[{"op":"truncate","doc":"d"}]}`,
		`{"ops":[{"op":"put","text":"<r/>"}]}`,
		`{"ops":[` + strings.TrimSuffix(strings.Repeat(`{"op":"delete","doc":"d"},`, 1025), ",") + `]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := lazyxml.NewCollection(lazyxml.LD)
		if err := c.Put("d", []byte("<r><a/><b><c/></b></r>")); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		New(c, Config{}).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp struct {
			Ops     int `json:"ops"`
			Failed  int `json:"failed"`
			Results []struct {
				Ok     bool `json:"ok"`
				Status int  `json:"status"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body is not a batch response: %v: %s", err, rec.Body)
		}
		if resp.Ops != len(resp.Results) {
			t.Fatalf("ops = %d, %d results", resp.Ops, len(resp.Results))
		}
		failed := 0
		for i, r := range resp.Results {
			if r.Ok {
				continue
			}
			failed++
			if r.Status < 400 || r.Status >= 600 {
				t.Fatalf("result %d failed with status %d", i, r.Status)
			}
		}
		if failed != resp.Failed {
			t.Fatalf("failed = %d, %d results are not ok", resp.Failed, failed)
		}
	})
}
