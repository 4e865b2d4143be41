package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"ssnkit/internal/colwire"
	"ssnkit/internal/sweep"
)

// This file is the SSNC columnar face of the v1 API (README "Columnar wire
// format"): POST /v1/maxssn accepts a columnar batch body, and /v1/maxssn
// batch plus /v1/sweep responses can be negotiated into columnar output.
// The JSON and columnar paths share one evaluation pipeline, so the values
// on either wire are the same float64s — JSON spells them in shortest
// round-trip decimal, SSNC ships the raw bits.

// isColumnarBody reports a request whose body is an SSNC block.
func isColumnarBody(r *http.Request) bool {
	ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && ct == colwire.ContentType
}

// acceptsMedia reports whether the Accept header lists the media type
// with a nonzero weight: q=0 marks it "not acceptable" (RFC 9110
// §12.4.2).
func acceptsMedia(r *http.Request, mediaType string) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil || mt != mediaType {
			continue
		}
		if q, ok := params["q"]; ok {
			if w, err := strconv.ParseFloat(q, 64); err == nil && w == 0 {
				continue
			}
		}
		return true
	}
	return false
}

// columnarResponseFor resolves the response encoding: an explicit
// columnar Accept wins, an explicit JSON Accept wins next, and with no
// stated preference the response mirrors the request body's format.
func columnarResponseFor(r *http.Request) bool {
	if acceptsMedia(r, colwire.ContentType) {
		return true
	}
	if acceptsMedia(r, "application/json") {
		return false
	}
	return isColumnarBody(r)
}

// columnarItemColumns is the set of per-row override columns a columnar
// /v1/maxssn batch may carry; every other name is rejected so a typo
// cannot silently evaluate the base point N times.
const columnarItemColumns = "n, l, c, slope, rise_time, vdd, pads, size"

// columnarBatchMeta is the meta JSON of a columnar /v1/maxssn request:
// just the shared parameter envelope (an explicit items list is the JSON
// form's job; columnar rows are the items).
type columnarBatchMeta struct {
	Items []json.RawMessage `json:"items"`
	paramsEnvelope
}

// decodeColumnarMaxSSN reads the single SSNC block of a columnar batch
// request and expands base params + override columns into EvalItems.
func (s *Server) decodeColumnarMaxSSN(w http.ResponseWriter, r *http.Request) ([]EvalItem, *apiError) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	blk, err := colwire.ReadBlock(body)
	if err != nil {
		if err == io.EOF {
			return nil, badRequest("empty columnar body")
		}
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) || errors.Is(err, colwire.ErrShortBlock) && bodyOverLimit(body) {
			return nil, &apiError{Code: CodeBodyTooLarge,
				Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)}
		}
		return nil, badRequest("columnar body: %v", err)
	}
	if _, err := colwire.ReadBlock(body); err != io.EOF {
		return nil, badRequest("trailing data after columnar block")
	}

	var meta columnarBatchMeta
	if len(blk.Meta) > 0 {
		if err := json.Unmarshal(blk.Meta, &meta); err != nil {
			return nil, badRequest("columnar meta: %v", err)
		}
	}
	if len(meta.Items) > 0 {
		return nil, badRequest("columnar meta must not carry items; rows are the items")
	}
	base := meta.item()

	rows := blk.Rows()
	if len(blk.Columns) == 0 || rows == 0 {
		return nil, badRequest("columnar batch needs at least one column with at least one row")
	}
	if rows > s.cfg.MaxBatch {
		return nil, batchTooLarge(rows, s.cfg.MaxBatch)
	}

	items := make([]EvalItem, rows)
	for i := range items {
		items[i] = base
	}
	for ci := range blk.Columns {
		col := &blk.Columns[ci]
		switch col.Name {
		case "n":
			for i, v := range col.Values {
				items[i].N = roundedInt(v)
			}
		case "l":
			for i := range col.Values {
				items[i].L = &col.Values[i]
			}
		case "c":
			for i := range col.Values {
				items[i].C = &col.Values[i]
			}
		case "slope":
			for i, v := range col.Values {
				items[i].Slope = v
				items[i].RiseTime = 0
			}
		case "rise_time":
			for i, v := range col.Values {
				items[i].RiseTime = v
				items[i].Slope = 0
			}
		case "vdd":
			for i, v := range col.Values {
				items[i].Vdd = v
			}
		case "pads":
			for i, v := range col.Values {
				items[i].Pads = roundedInt(v)
			}
		case "size":
			for i, v := range col.Values {
				items[i].Size = v
			}
		default:
			return nil, badRequest("unknown columnar column %q; columns may be %s", col.Name, columnarItemColumns)
		}
	}
	return items, nil
}

// roundedInt converts a wire float to an int field, mapping anything that
// does not round to a representable positive count onto 0 so validation
// rejects it with the model's own constraint message.
func roundedInt(v float64) int {
	if !(v >= 0 && v <= 1<<31) {
		return 0
	}
	return int(math.Round(v))
}

// bodyOverLimit reports whether the limited reader was exhausted by a
// body at the cap (distinguishing a truncated block from an oversized one).
func bodyOverLimit(body io.Reader) bool {
	var one [1]byte
	_, err := body.Read(one[:])
	var maxErr *http.MaxBytesError
	return errors.As(err, &maxErr)
}

// columnarBatchResponseMeta is the meta JSON of a columnar batch reply.
type columnarBatchResponseMeta struct {
	Count  int                  `json:"count"`
	Errors map[string]*apiError `json:"errors,omitempty"`
}

// writeColumnarBatch encodes batch results as one SSNC block: columns
// vmax, case_code, t_max, beta; failed rows carry NaN values and
// case_code -1 with the error envelope keyed by row index in the meta.
func (s *Server) writeColumnarBatch(w http.ResponseWriter, results []EvalResult) {
	rows := len(results)
	cols := make([]float64, 4*rows)
	vmax, caseCode := cols[0*rows:1*rows], cols[1*rows:2*rows]
	tmax, beta := cols[2*rows:3*rows], cols[3*rows:4*rows]
	meta := columnarBatchResponseMeta{Count: rows}
	for i := range results {
		res := &results[i]
		if res.Error != nil {
			if meta.Errors == nil {
				meta.Errors = make(map[string]*apiError)
			}
			meta.Errors[strconv.Itoa(i)] = res.Error
			nan := math.NaN()
			vmax[i], tmax[i], beta[i] = nan, nan, nan
			caseCode[i] = -1
			continue
		}
		vmax[i] = res.VMax
		caseCode[i] = float64(res.CaseCode)
		tmax[i] = res.TMax
		beta[i] = res.Beta
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		writeError(w, &apiError{Code: CodeInternal, Message: err.Error()})
		return
	}
	blk := colwire.Block{
		Meta: metaJSON,
		Columns: []colwire.Column{
			{Name: "vmax", Values: vmax},
			{Name: "case_code", Values: caseCode},
			{Name: "t_max", Values: tmax},
			{Name: "beta", Values: beta},
		},
	}
	buf := getReplyBuf()
	defer putReplyBuf(buf)
	enc, err := encodeBlock(buf, &blk)
	if err != nil {
		writeError(w, &apiError{Code: CodeInternal, Message: err.Error()})
		return
	}
	s.metrics.columnar.inc("/v1/maxssn", "out")
	w.Header().Set("Content-Type", colwire.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(enc)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(enc)
}

// handleMaxSSNColumnar serves a columnar-bodied POST /v1/maxssn: rows are
// batch items over the meta envelope's base point. The evaluation pipeline
// is the JSON batch path's; only the wire differs.
func (s *Server) handleMaxSSNColumnar(w http.ResponseWriter, r *http.Request) {
	items, aerr := s.decodeColumnarMaxSSN(w, r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	s.metrics.columnar.inc("/v1/maxssn", "in")
	results := s.evalItems(r.Context(), items)
	if columnarResponseFor(r) {
		s.writeColumnarBatch(w, results)
		return
	}
	writeJSON(w, http.StatusOK, maxSSNBatchResponse{Count: len(results), Results: results})
}

// sweepColBlockRows is the row count per streamed sweep block: large
// enough to amortize the 16-byte header and column names, small enough
// that clients observe progress.
const sweepColBlockRows = 1024

// columnarSweepSink accumulates sweep chunks into per-column buffers and
// sends them as SSNC blocks on the stream. Column slices are reused across
// blocks (AppendTo copies the bits out), so a million-point stream
// allocates a handful of slices once.
type columnarSweepSink struct {
	st   *stream
	axes []sweep.Axis

	axisVals [][]float64
	vmax     []float64
	caseCode []float64
	depth    []float64
	rows     int
	errs     map[string]*apiError
}

func newColumnarSweepSink(st *stream, axes []sweep.Axis) *columnarSweepSink {
	k := &columnarSweepSink{st: st, axes: axes}
	k.axisVals = make([][]float64, len(axes))
	for i := range k.axisVals {
		k.axisVals[i] = make([]float64, 0, sweepColBlockRows)
	}
	k.vmax = make([]float64, 0, sweepColBlockRows)
	k.caseCode = make([]float64, 0, sweepColBlockRows)
	k.depth = make([]float64, 0, sweepColBlockRows)
	return k
}

// add appends a chunk's rows to the pending blocks column by column,
// sending each block as it fills. It mirrors the JSON path's resolution:
// the rounded N on an n axis for a valid row (case != 0), the raw axis
// value for a failed one, whose vmax the engine wrote as NaN; a failed
// row's error goes into the block meta under its row index.
func (k *columnarSweepSink) add(c *sweep.Chunk) error {
	nAx := len(k.axes)
	for lo := 0; lo < len(c.Points); {
		hi := min(len(c.Points), lo+sweepColBlockRows-k.rows)
		cases := c.Case[lo:hi]
		for a := range k.axes {
			col, dst := extend(k.axisVals[a], len(cases))
			src := c.Values[lo*nAx+a:]
			if k.axes[a].Name == sweep.AxisN {
				for j, cs := range cases {
					v := src[j*nAx]
					if cs != 0 {
						v = float64(sweep.DriverCount(v))
					}
					dst[j] = v
				}
			} else {
				for j := range dst {
					dst[j] = src[j*nAx]
				}
			}
			k.axisVals[a] = col
		}
		k.vmax = append(k.vmax, c.VMax[lo:hi]...)
		col, dst := extend(k.caseCode, len(cases))
		for j, cs := range cases {
			dst[j] = float64(cs)
			if cs == 0 {
				dst[j] = -1
			}
		}
		k.caseCode = col
		col, dst = extend(k.depth, len(cases))
		for j, d := range c.Depth[lo:hi] {
			dst[j] = float64(d)
		}
		k.depth = col
		for i := lo; i < hi && c.Errors > 0; i++ {
			if err := c.Points[i].Err; err != nil {
				if k.errs == nil {
					k.errs = make(map[string]*apiError)
				}
				k.errs[strconv.Itoa(k.rows+i-lo)] = toAPIError(err)
			}
		}
		k.rows += len(cases)
		lo = hi
		if k.rows >= sweepColBlockRows {
			if err := k.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// extend lengthens col by n entries and returns it with the new entries.
func extend(col []float64, n int) ([]float64, []float64) {
	m := len(col)
	col = slices.Grow(col, n)[:m+n]
	return col, col[m:]
}

// flush sends the pending rows as one block, their errors keyed by block
// row index in its meta, and resets the accumulators. Zero rows send
// nothing.
func (k *columnarSweepSink) flush() error {
	if k.rows == 0 {
		return nil
	}
	var blk colwire.Block
	if k.errs != nil {
		m, err := json.Marshal(struct {
			Errors map[string]*apiError `json:"errors"`
		}{k.errs})
		if err != nil {
			return err
		}
		blk.Meta = m
	}
	blk.Columns = make([]colwire.Column, 0, len(k.axes)+3)
	for i, ax := range k.axes {
		blk.Columns = append(blk.Columns, colwire.Column{Name: ax.Name, Values: k.axisVals[i]})
	}
	blk.Columns = append(blk.Columns,
		colwire.Column{Name: "vmax", Values: k.vmax},
		colwire.Column{Name: "case_code", Values: k.caseCode},
		colwire.Column{Name: "depth", Values: k.depth},
	)
	if err := k.st.block(blk); err != nil {
		return err
	}
	for i := range k.axisVals {
		k.axisVals[i] = k.axisVals[i][:0]
	}
	k.vmax, k.caseCode, k.depth = k.vmax[:0], k.caseCode[:0], k.depth[:0]
	k.rows = 0
	k.errs = nil
	return nil
}

// runSweepColumnar streams the sweep as a sequence of SSNC blocks: row
// blocks with one column per axis plus vmax/case_code/depth (per-row
// errors keyed by block row index in the meta), then a terminal zero-row
// block whose meta is {"done":true,"stats":{...}} — or the error envelope
// if the engine aborted.
func (s *Server) runSweepColumnar(w http.ResponseWriter, r *http.Request, g sweep.Grid, cfg sweep.Config) {
	s.metrics.columnar.inc("/v1/sweep", "out")
	st := startStream(w, colwire.ContentType)
	sink := newColumnarSweepSink(st, g.Axes)
	stats, err := sweep.RunChunks(r.Context(), g, cfg, sink.add)
	s.countSweep(stats, err)
	// Drain the last partial block, aborted or not, before the terminal
	// record.
	if ferr := sink.flush(); err == nil {
		err = ferr
	}
	st.finish(sweepDone(stats), err)
}

// DecodeColumnarStream reads every SSNC block of a columnar sweep or batch
// stream (a convenience for clients and tests).
func DecodeColumnarStream(r io.Reader) ([]*colwire.Block, error) {
	var blocks []*colwire.Block
	for {
		blk, err := colwire.ReadBlock(r)
		if err == io.EOF {
			return blocks, nil
		}
		if err != nil {
			return blocks, err
		}
		blocks = append(blocks, blk)
	}
}
