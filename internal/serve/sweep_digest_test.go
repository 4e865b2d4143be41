package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"ssnkit/internal/colwire"
	"ssnkit/internal/device"
	"ssnkit/internal/ssn"
	"ssnkit/internal/sweep"
)

// digest is a short hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// splitSweepStream cuts a /v1/sweep reply into its point bytes and its
// terminal summary, and returns the point records one string each: NDJSON
// lines, or SSNC rows spelled as the bits of every column plus the row's
// error record, if any.
func splitSweepStream(t *testing.T, body []byte, ssnc bool) (points []byte, recs []string, sum sweepSummary) {
	t.Helper()
	if !ssnc {
		end := bytes.LastIndexByte(bytes.TrimSuffix(body, []byte("\n")), '\n') + 1
		if err := json.Unmarshal(body[end:], &sum); err != nil {
			t.Fatalf("terminal line %q: %v", body[end:], err)
		}
		for _, l := range bytes.SplitAfter(body[:end], []byte("\n")) {
			if len(l) > 0 {
				recs = append(recs, string(l))
			}
		}
		return body[:end], recs, sum
	}
	r := bytes.NewReader(body)
	end := 0
	for {
		blk, err := colwire.ReadBlock(r)
		if err != nil {
			t.Fatalf("block at byte %d: %v", end, err)
		}
		if blk.Rows() == 0 {
			if r.Len() != 0 {
				t.Fatalf("%d bytes after the terminal block", r.Len())
			}
			if err := json.Unmarshal(blk.Meta, &sum); err != nil {
				t.Fatalf("terminal meta %s: %v", blk.Meta, err)
			}
			return body[:end], recs, sum
		}
		var meta struct {
			Errors map[string]json.RawMessage `json:"errors"`
		}
		if len(blk.Meta) > 0 {
			if err := json.Unmarshal(blk.Meta, &meta); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < blk.Rows(); i++ {
			var b []byte
			for _, c := range blk.Columns {
				b = append(b, c.Name...)
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Values[i]))
			}
			recs = append(recs, string(append(b, meta.Errors[fmt.Sprint(i)]...)))
		}
		end = len(body) - r.Len()
	}
}

// TestSweepStreamDigest pins the /v1/sweep bytes, NDJSON and SSNC, of
// grids with an inner and an outer n axis (the reported n is the rounded
// driver count), a rise-time axis, a grid of three SSNC blocks and a
// refined grid, at chunk sizes 1, 7, 100, 1024 and 5000 and at one and
// three workers. The point bytes (terminal summary stripped) must carry
// the pinned digest at every setting; refined records, whose order is
// unspecified past one worker, are compared as a set there. The summary
// must count the points and chunks of each setting.
func TestSweepStreamDigest(t *testing.T) {
	h := New(Config{Workers: 4}).Handler()
	const params = `"params": {"dev": {"k": 0.004, "v0": 0.6, "a": 1.2}, "vdd": 1.8, "l": 1.25e-9, "c": 2e-12, "rise_time": 1e-9}`
	for _, tc := range []struct {
		name, axes     string
		refine, points int
		ndjson, ssnc   string
	}{
		{"inner n", `{"axis": "c", "from": 1e-14, "to": 4e-11, "points": 9, "log": true},
			{"axis": "n", "from": 0.5, "to": 40.5, "points": 23}`, 0, 207, "d8fecccaa7de2503", "43eae30192b1a54d"},
		{"outer n inner tr", `{"axis": "n", "from": 1, "to": 64, "points": 37},
			{"axis": "tr", "from": 1e-10, "to": 3e-9, "points": 61}`, 0, 2257, "c7e3d0014ad049a9", "8d77931d8e2d4f27"},
		{"refined", `{"axis": "n", "from": 1, "to": 40, "points": 9},
			{"axis": "c", "from": 1e-14, "to": 4e-11, "points": 110, "log": true}`, 4, 990, "03a26db7a4d50bef", "dd2f74c262908904"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, ssnc := range []bool{false, true} {
				accept, want := "application/x-ndjson", tc.ndjson
				if ssnc {
					accept, want = colwire.ContentType, tc.ssnc
				}
				var canon0 string
				refined0 := -1
				for _, workers := range []int{1, 3} {
					for _, chunk := range []int{1, 7, 100, 1024, 5000} {
						what := fmt.Sprintf("%s workers %d chunk %d", accept, workers, chunk)
						body := fmt.Sprintf(`{%s, "axes": [%s], "refine_depth": %d, "workers": %d, "chunk_size": %d}`,
							params, tc.axes, tc.refine, workers, chunk)
						req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
						req.Header.Set("Content-Type", "application/json")
						req.Header.Set("Accept", accept)
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, req)
						if rec.Code != http.StatusOK {
							t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body)
						}
						points, recs, sum := splitSweepStream(t, rec.Body.Bytes(), ssnc)
						st := sum.Stats
						chunks := (tc.points + chunk - 1) / chunk
						if !sum.Done || st.GridPoints != tc.points || st.Evaluated != tc.points+st.RefinedPoints ||
							len(recs) != st.Evaluated || st.Errors != 0 || st.Chunks != chunks ||
							st.Workers != min(workers, chunks) || (tc.refine > 0) != (st.RefinedPoints > 0) {
							t.Errorf("%s: %d records, summary %+v", what, len(recs), sum)
						}
						if refined0 < 0 {
							refined0 = st.RefinedPoints
						} else if st.RefinedPoints != refined0 {
							t.Errorf("%s: %d refined points, want %d", what, st.RefinedPoints, refined0)
						}
						refined := recs[min(tc.points, len(recs)):]
						sort.Strings(refined)
						canon := digest([]byte(strings.Join(recs, "\x00")))
						if canon0 == "" {
							canon0 = canon
						} else if canon != canon0 {
							t.Errorf("%s: records differ from one worker's", what)
						}
						if workers == 1 || tc.refine == 0 {
							if got := digest(points); got != want {
								t.Errorf("%s: digest %s, want %s", what, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestSweepColumnarFailedRowsDigest pins the SSNC bytes of a sweep whose
// points fail in place — an outer rise-time axis and an inner inductance
// axis through zero, around an n axis — which no /v1/sweep request can
// reach past its domain checks: failed rows carry NaN, case_code -1, the
// raw n and their error records in the block meta.
func TestSweepColumnarFailedRowsDigest(t *testing.T) {
	s := New(Config{Workers: 4})
	g := sweep.Grid{
		Base: ssn.Params{N: 16, Dev: device.ASDM{K: 4e-3, V0: 0.6, A: 1.2},
			Vdd: 1.8, Slope: 1.8e9, L: 1.25e-9, C: 2e-12},
		Axes: []sweep.Axis{
			{Name: sweep.AxisRise, From: -0.5e-9, To: 2e-9, Points: 6},
			{Name: sweep.AxisN, From: 0.25, To: 12.5, Points: 5},
			{Name: sweep.AxisL, From: -1e-9, To: 4e-9, Points: 41},
		},
	}
	for _, workers := range []int{1, 3} {
		for _, chunk := range []int{1, 7, 100, 1024, 5000} {
			req := httptest.NewRequest(http.MethodPost, "/v1/sweep", nil).WithContext(context.Background())
			rec := httptest.NewRecorder()
			s.runSweepColumnar(rec, req, g, sweep.Config{Workers: workers, ChunkSize: chunk})
			points, recs, sum := splitSweepStream(t, rec.Body.Bytes(), true)
			if !sum.Done || sum.Stats.Evaluated != 1230 || sum.Stats.Errors != 590 || len(recs) != 1230 {
				t.Errorf("workers %d chunk %d: %d records, summary %+v", workers, chunk, len(recs), sum)
			}
			if got, want := digest(points), "466b9a136aa14471"; got != want {
				t.Errorf("workers %d chunk %d: digest %s, want %s", workers, chunk, got, want)
			}
		}
	}
}
