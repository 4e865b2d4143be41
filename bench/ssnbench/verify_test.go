package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"ssnkit/internal/colwire"
)

// recordReply runs one generated request of the workload through the
// in-process handler and returns the reply body with its expected digest.
func recordReply(t *testing.T, w *workload) ([]byte, reply) {
	t.Helper()
	_, meas := w.generate(5, 0, 1)
	ev := newEvaluator(1)
	want, err := w.expect(ev, meas[0])
	if err != nil {
		t.Fatalf("%s: in-process evaluation: %v", w.name, err)
	}
	h := newHandler(w, 1)
	r := httptest.NewRequest(http.MethodPost, w.path, bytes.NewReader(meas[0].body))
	r.Header.Set("Content-Type", "application/json")
	if w.accept != "" {
		r.Header.Set("Accept", w.accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", w.name, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), want
}

// flipJSONDigit flips the low bit of the leading digit of the first number
// after key: the value changes by a ninth of it or more, or, with a new
// leading zero, stops parsing. A flip in the last of 17 significant digits
// could round back to the same float64.
func flipJSONDigit(t *testing.T, body []byte, key string) []byte {
	t.Helper()
	out := append([]byte(nil), body...)
	i := bytes.Index(out, []byte(key))
	if i < 0 {
		t.Fatalf("no %s in reply", key)
	}
	i += len(key)
	if out[i] == '"' { // a map value: skip its key
		i += bytes.IndexByte(out[i:], ':') + 1
	}
	if out[i] == '-' {
		i++
	}
	if i >= len(out) || out[i] < '0' || out[i] > '9' {
		t.Fatalf("no number after %s", key)
	}
	out[i] ^= 1
	return out
}

// flipSSNCValue flips the lowest mantissa bit of the first vmax value of
// the first block, located by its little-endian bits.
func flipSSNCValue(t *testing.T, body []byte) []byte {
	t.Helper()
	blk, _, err := colwire.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	var enc [8]byte
	binary.LittleEndian.PutUint64(enc[:], math.Float64bits(blk.Column("vmax")[0]))
	out := append([]byte(nil), body...)
	i := bytes.Index(out, enc[:])
	if i < 0 {
		t.Fatal("vmax bits not found in block")
	}
	out[i] ^= 1
	return out
}

func TestVerifiersRejectOneFlippedBit(t *testing.T) {
	flips := map[string]func(*testing.T, []byte) []byte{
		"maxssn":       func(t *testing.T, b []byte) []byte { return flipJSONDigit(t, b, `"vmax":`) },
		"sweep-ndjson": func(t *testing.T, b []byte) []byte { return flipJSONDigit(t, b, `"vmax":`) },
		"sweep-ssnc":   flipSSNCValue,
		"impedance":    func(t *testing.T, b []byte) []byte { return flipJSONDigit(t, b, `"z_mag":`) },
		"optimize":     func(t *testing.T, b []byte) []byte { return flipJSONDigit(t, b, `"peak_after":`) },
		"oracle":       func(t *testing.T, b []byte) []byte { return flipJSONDigit(t, b, `"worst_rel":{`) },
	}
	for _, w := range workloads {
		flip := flips[w.name]
		if flip == nil {
			t.Errorf("%s: no negative test", w.name)
			continue
		}
		body, want := recordReply(t, w)
		got, err := w.check(body)
		if err != nil || got.digest != want.digest || got.ops != want.ops {
			t.Fatalf("%s: recorded reply does not verify: %v (digest %x, want %x)", w.name, err, got.digest, want.digest)
		}
		bad, err := w.check(flip(t, body))
		if err == nil && bad.digest == want.digest {
			t.Errorf("%s: a reply with one flipped bit still verifies", w.name)
		}
	}
}

func TestStreamsNeedTerminalRecord(t *testing.T) {
	for _, name := range []string{"sweep-ndjson", "sweep-ssnc", "impedance"} {
		w, _ := workloadByName(name)
		body, _ := recordReply(t, w)
		var cut []byte
		if name == "sweep-ssnc" {
			// Keep every row block and drop the terminal zero-row block.
			for rest := body; len(rest) > 0; {
				blk, n, err := colwire.Decode(rest)
				if err != nil {
					t.Fatal(err)
				}
				if blk.Rows() > 0 {
					cut = append(cut, rest[:n]...)
				}
				rest = rest[n:]
			}
		} else {
			trimmed := bytes.TrimSuffix(body, []byte("\n"))
			cut = body[:bytes.LastIndexByte(trimmed, '\n')+1]
		}
		if _, err := w.check(cut); err == nil {
			t.Errorf("%s: a stream without its terminal record verifies", name)
		}
	}
}
