package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"butterfly/serveapi"
)

// TestIngestRejectsMalformedEdges: an NDJSON line must be exactly two
// integers. Each of these lines used to be ingested as a wrong edge
// ([7] as (7,0), [] as (0,0), [1,2,3] as (1,2), [null,2] as (0,2)).
func TestIngestRejectsMalformedEdges(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.IngestOpen(ctx, serveapi.IngestRequest{Name: "g", M: 8, N: 8}); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{`[7]`, `[]`, `[1,2,3]`, `[null,2]`, `[1.5,2]`, `["1",2]`, `null`, `[1,2] [3,4]`} {
		resp, err := http.Post(urlOf(t, c)+"/v1/ingest/g/edges", "application/x-ndjson", strings.NewReader(line+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		var env serveapi.ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != serveapi.CodeInvalidArgument {
			t.Errorf("line %s: status %d code %q, want 400 %s", line, resp.StatusCode, env.Error.Code, serveapi.CodeInvalidArgument)
		}
	}
	st, err := c.IngestStatus(ctx, "g")
	if err != nil || st.EdgesSeen != 0 {
		t.Fatalf("status after malformed lines = %+v, %v; want nothing ingested", st, err)
	}
}

// FuzzIngestEdges streams arbitrary NDJSON bodies into an 8×8 ingest.
// ingestEdges must not panic, must reject only with a badRequestError,
// and must accept exactly the valid lines before the first bad one,
// less those in the chunk the bad line discards (ingestEdges applies a
// body in ingestChunk-edge chunks and drops the chunk holding an error).
func FuzzIngestEdges(f *testing.F) {
	s := New(Config{})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 64<<10 {
			return // a line past the scanner's buffer is another error path
		}
		ing, err := s.reg.OpenIngest("f", 8, 8, 16, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ingestEdges(ing, bytes.NewReader(body))
		var valid int64
		bad := false
		for _, line := range bytes.Split(body, []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) == 0 {
				continue
			}
			if !fuzzEdgeLine(line) {
				bad = true
				break
			}
			valid++
		}
		want := valid
		if bad {
			want -= valid % ingestChunk
		}
		var br badRequestError
		switch {
		case bad && !errors.As(err, &br):
			t.Fatalf("%q: err = %T %v, want a badRequestError", body, err, err)
		case !bad && err != nil:
			t.Fatalf("%q: every line is an edge, but err = %v", body, err)
		case got != want:
			t.Fatalf("%q: accepted %d edges, want %d", body, got, want)
		case ing.status().EdgesSeen != got:
			t.Fatalf("%q: accepted %d edges, but the reservoir saw %d", body, got, ing.status().EdgesSeen)
		}
	})
}

// fuzzEdgeLine reports whether a trimmed NDJSON line is an edge of the
// 8×8 fuzz ingest: one JSON array of two integers in [0, 8). It decodes
// the line independently of ingestEdges.
func fuzzEdgeLine(b []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v []any
	if dec.Decode(&v) != nil || len(v) != 2 {
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		return false
	}
	for _, x := range v {
		n, ok := x.(json.Number)
		if !ok {
			return false
		}
		i, err := n.Int64()
		if err != nil || i < 0 || i >= 8 {
			return false
		}
	}
	return true
}
