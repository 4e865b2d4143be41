package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"ssnkit/internal/colwire"
	"ssnkit/internal/sweep"
)

// replyBufPool recycles reply encode buffers across requests: streamed
// NDJSON lines and SSNC blocks, writeJSON replies and columnar batch
// replies all encode into one before it goes to the connection, so the
// per-record cost is an append into memory, not a ResponseWriter round
// trip.
var replyBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// replyBufMaxRetain caps the capacity of a buffer returned to the pool: an
// 8192-row columnar batch (256 KB) is kept, a pathologically wide reply
// does not pin its high-water mark for the life of the process.
const replyBufMaxRetain = 1 << 20

func getReplyBuf() *bytes.Buffer {
	buf := replyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putReplyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= replyBufMaxRetain {
		replyBufPool.Put(buf)
	}
}

// encodeBlock encodes blk into buf's spare capacity and returns the
// bytes. buf grows first, so the pooled buffer keeps the space, but its
// contents stay as they were: a block goes out whole, and copying it into
// buf would cost a memmove per block.
func encodeBlock(buf *bytes.Buffer, blk *colwire.Block) ([]byte, error) {
	buf.Grow(blk.EncodedSize())
	return blk.AppendTo(buf.AvailableBuffer())
}

// streamFlushBytes is how many bytes of NDJSON lines may buffer before a
// flush: one write per ~550 sweep records of about 120 bytes. A record
// encodes in about 250 ns, so a client still sees its first bytes within
// about 0.2 ms of a sweep's compute.
const streamFlushBytes = 64 << 10

// stream is one streamed 200 reply (/v1/sweep, /v1/impedance,
// /v1/distsweep), as NDJSON lines or SSNC blocks. Records are encoded
// whole into one pooled buffer and reach the connection at record
// boundaries: at the first line end once streamFlushBytes are buffered,
// every block, every Write (whose bytes go out as they are). finish ends
// the stream with exactly one terminal record — the summary, or
// {"error":…} once the status line is long gone.
type stream struct {
	w        http.ResponseWriter
	flusher  http.Flusher
	columnar bool
	buf      *bytes.Buffer
}

// startStream sends the 200 status line with the stream's content type
// (NDJSON or colwire.ContentType) and takes a pooled buffer.
func startStream(w http.ResponseWriter, contentType string) *stream {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	st := &stream{w: w, columnar: contentType == colwire.ContentType, buf: getReplyBuf()}
	st.flusher, _ = w.(http.Flusher)
	return st
}

// endLine marks the end of a complete NDJSON line in buf and flushes
// once buf holds streamFlushBytes.
func (st *stream) endLine() error {
	if st.buf.Len() < streamFlushBytes {
		return nil
	}
	return st.flush()
}

// block sends blk as one SSNC block.
func (st *stream) block(blk colwire.Block) error {
	b, err := encodeBlock(st.buf, &blk)
	if err != nil {
		return err
	}
	return st.send(b)
}

// Write sends p, whole records, at once: dist.Run hands over one merged
// shard payload per call.
func (st *stream) Write(p []byte) (int, error) {
	if err := st.send(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// flush sends the lines buffered so far.
func (st *stream) flush() error {
	err := st.send(st.buf.Bytes())
	st.buf.Reset()
	return err
}

// send writes records to the connection and flushes them to the client.
func (st *stream) send(p []byte) error {
	if _, err := st.w.Write(p); err != nil {
		return err
	}
	if st.flusher != nil {
		st.flusher.Flush()
	}
	return nil
}

// finish ends the stream with summary, or with err's error record when
// the stream aborted, drains buf and returns it to the pool. The record
// is a sweep.AppendJSON line on NDJSON; on SSNC it is a zero-row block
// whose meta is json.Marshal's (HTML-escaped) output.
func (st *stream) finish(summary any, err error) {
	if err != nil {
		summary = map[string]*apiError{"error": toAPIError(err)}
	}
	// Summaries hold the ints, strings and floats the records already
	// encoded; a failed write means the client is gone.
	if st.columnar {
		if meta, err := json.Marshal(summary); err == nil {
			_ = st.block(colwire.Block{Meta: meta})
		}
	} else {
		if b, err := sweep.AppendJSON(st.buf.AvailableBuffer(), summary); err == nil {
			st.buf.Write(append(b, '\n'))
		}
		_ = st.flush()
	}
	putReplyBuf(st.buf)
	st.buf = nil
}
