package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ssnkit/internal/colwire"
)

// recordingWriter is an http.ResponseWriter and http.Flusher that keeps
// every Write as its own chunk and, per Flush, how many chunks had been
// written by then.
type recordingWriter struct {
	header  http.Header
	status  int
	chunks  [][]byte
	flushes []int
}

func newRecordingWriter() *recordingWriter {
	return &recordingWriter{header: http.Header{}}
}

func (rw *recordingWriter) Header() http.Header  { return rw.header }
func (rw *recordingWriter) WriteHeader(code int) { rw.status = code }
func (rw *recordingWriter) Flush()               { rw.flushes = append(rw.flushes, len(rw.chunks)) }

func (rw *recordingWriter) Write(p []byte) (int, error) {
	rw.chunks = append(rw.chunks, bytes.Clone(p))
	return len(p), nil
}

func (rw *recordingWriter) body() []byte { return bytes.Join(rw.chunks, nil) }

// checkFlushedChunks requires one Flush right after each of the n writes.
func checkFlushedChunks(t *testing.T, rw *recordingWriter, n int) {
	t.Helper()
	if len(rw.chunks) != n || len(rw.flushes) != n {
		t.Fatalf("%d writes and %d flushes, want %d of each", len(rw.chunks), len(rw.flushes), n)
	}
	for i, after := range rw.flushes {
		if after != i+1 {
			t.Fatalf("flush %d came after %d writes, want %d", i, after, i+1)
		}
	}
}

// streamSummary holds HTML-special characters: the NDJSON terminal line
// keeps them as they are, the SSNC terminal meta escapes them.
var streamSummary = map[string]any{"done": true, "note": "<a&b>"}

var streamErr = &apiError{Code: CodeInternal, Message: "x <y> & z"}

// TestStreamNDJSON pins the NDJSON cadence — nothing goes out before
// 64 KiB of lines are buffered, then every write holds at least 64 KiB of
// whole lines, and the rest goes out with the terminal line — and the
// terminal rule: exactly one last line, the error record when finish gets
// an error.
func TestStreamNDJSON(t *testing.T) {
	const flushBytes = 64 << 10
	line := func(i int) string { return fmt.Sprintf("{\"i\":%d,\"pad\":%q}\n", i, strings.Repeat("x", i%150)) }
	for _, tc := range []struct {
		err  error
		last string
	}{
		{nil, `{"done":true,"note":"<a&b>"}`},
		{streamErr, `{"error":{"code":"internal","message":"x <y> & z"}}`},
	} {
		rw := newRecordingWriter()
		st := startStream(rw, "application/x-ndjson")
		var lines, sent, buffered int
		for sent < 3*flushBytes {
			l := line(lines)
			lines++
			st.buf.WriteString(l)
			buffered += len(l)
			before := len(rw.chunks)
			if err := st.endLine(); err != nil {
				t.Fatal(err)
			}
			switch {
			case len(rw.chunks) == before && buffered >= flushBytes:
				t.Fatalf("line %d: %d bytes buffered and not written", lines, buffered)
			case len(rw.chunks) > before+1:
				t.Fatalf("line %d: %d writes", lines, len(rw.chunks)-before)
			case len(rw.chunks) == before+1:
				if got := len(rw.chunks[before]); got != buffered {
					t.Fatalf("line %d: wrote %d bytes of the %d buffered", lines, got, buffered)
				}
				sent += buffered
				buffered = 0
			}
		}
		st.finish(streamSummary, tc.err)

		if rw.status != http.StatusOK || rw.header.Get("Content-Type") != "application/x-ndjson" {
			t.Fatalf("status %d, content type %q", rw.status, rw.header.Get("Content-Type"))
		}
		n := len(rw.chunks)
		checkFlushedChunks(t, rw, n)
		for i, c := range rw.chunks[:n-1] {
			if len(c) < flushBytes || c[len(c)-1] != '\n' {
				t.Errorf("write %d: %d bytes ending in %q, want >= %d ending in a newline", i, len(c), c[len(c)-1], flushBytes)
			}
		}
		got := strings.Split(strings.TrimSuffix(string(rw.body()), "\n"), "\n")
		if len(got) != lines+1 || got[lines] != tc.last {
			t.Fatalf("%d lines ending in %q, want %d ending in %q", len(got), got[len(got)-1], lines+1, tc.last)
		}
		for i, l := range got[:lines] {
			if l+"\n" != line(i) {
				t.Fatalf("line %d is %q, want %q", i, l, line(i))
			}
		}
	}
}

// TestStreamSSNC pins the SSNC cadence — a flush after every block — and
// the terminal rule: exactly one zero-row block whose meta is the summary,
// or the error record when finish gets an error.
func TestStreamSSNC(t *testing.T) {
	for _, tc := range []struct {
		err  error
		meta string
	}{
		{nil, `{"done":true,"note":"\u003ca\u0026b\u003e"}`},
		{streamErr, `{"error":{"code":"internal","message":"x \u003cy\u003e \u0026 z"}}`},
	} {
		rw := newRecordingWriter()
		st := startStream(rw, colwire.ContentType)
		for i := 0; i < 3; i++ {
			blk := colwire.Block{Columns: []colwire.Column{{Name: "x", Values: []float64{float64(i), 0.5}}}}
			if err := st.block(blk); err != nil {
				t.Fatal(err)
			}
		}
		st.finish(streamSummary, tc.err)

		if rw.status != http.StatusOK || rw.header.Get("Content-Type") != colwire.ContentType {
			t.Fatalf("status %d, content type %q", rw.status, rw.header.Get("Content-Type"))
		}
		checkFlushedChunks(t, rw, 4)
		blocks, err := DecodeColumnarStream(bytes.NewReader(rw.body()))
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != 4 {
			t.Fatalf("%d blocks, want 3 data + 1 terminal", len(blocks))
		}
		for i, blk := range blocks[:3] {
			if blk.Rows() != 2 || blk.Meta != nil || blk.Column("x")[0] != float64(i) {
				t.Fatalf("data block %d: %d rows, meta %q", i, blk.Rows(), blk.Meta)
			}
		}
		if last := blocks[3]; last.Rows() != 0 || string(last.Meta) != tc.meta {
			t.Fatalf("terminal block: %d rows, meta %s, want 0 rows, meta %s", last.Rows(), last.Meta, tc.meta)
		}
	}
}

// TestStreamWrite: each Write (a dist shard payload) goes out and is
// flushed at once, ahead of the terminal line.
func TestStreamWrite(t *testing.T) {
	rw := newRecordingWriter()
	st := startStream(rw, "application/x-ndjson")
	for _, p := range []string{"{\"a\":1}\n{\"a\":2}\n", "{\"a\":3}\n"} {
		if n, err := st.Write([]byte(p)); n != len(p) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	st.finish(streamSummary, nil)
	checkFlushedChunks(t, rw, 3)
	if got, want := string(rw.body()), "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n{\"done\":true,\"note\":\"<a&b>\"}\n"; got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
}

// TestStreamPoolHammer: NDJSON and SSNC sweeps, JSON and SSNC /v1/maxssn
// batch replies encode concurrently into buffers of the one reply pool,
// and every body must equal its serial reply. A buffer handed back to the
// pool while still being written would show here (and under -race).
func TestStreamPoolHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	sweepReq := `{"params":{"n":8,"dev":{"k":4e-3,"v0":0.6,"a":1.2},"vdd":1.8,"l":1.25e-9,"slope":1.8e9},` +
		`"axes":[{"axis":"n","from":1,"to":40,"points":40},{"axis":"c","from":1e-13,"to":1e-11,"points":40,"log":true}],"workers":1}`
	items := make([]string, 16)
	for i := range items {
		items[i] = fmt.Sprintf(`{"n":%d,"dev":{"k":4e-3,"v0":0.6,"a":1.2},"vdd":1.8,"l":1.25e-9,"c":1e-12,"slope":1.8e9}`, i)
	}
	batchReq := `{"items":[` + strings.Join(items, ",") + `]}`
	reqs := []struct{ path, body, accept string }{
		{"/v1/sweep", sweepReq, "application/x-ndjson"},
		{"/v1/sweep", sweepReq, colwire.ContentType},
		{"/v1/maxssn", batchReq, "application/json"},
		{"/v1/maxssn", batchReq, colwire.ContentType},
	}
	post := func(i int) ([]byte, error) {
		req, err := http.NewRequest("POST", ts.URL+reqs[i].path, strings.NewReader(reqs[i].body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", reqs[i].accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", reqs[i].path, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes(), nil
	}
	serial := make([][]byte, len(reqs))
	for i := range reqs {
		var err error
		if serial[i], err = post(i); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 2*len(reqs); k++ {
				i := (c + k) % len(reqs)
				got, err := post(i)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, serial[i]) {
					t.Errorf("%s (Accept %s): concurrent reply differs from the serial one", reqs[i].path, reqs[i].accept)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
