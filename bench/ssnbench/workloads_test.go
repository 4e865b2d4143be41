package main

import (
	"bytes"
	"testing"
)

func TestGenerateIsSeeded(t *testing.T) {
	for _, w := range workloads {
		warmA, measA := w.generate(7, 3, 5)
		warmB, measB := w.generate(7, 3, 5)
		_, measC := w.generate(8, 3, 5)
		for i := range measA {
			if !bytes.Equal(measA[i].body, measB[i].body) {
				t.Errorf("%s: seed 7 request %d differs between generations", w.name, i)
			}
		}
		for i := range warmA {
			if !bytes.Equal(warmA[i].body, warmB[i].body) {
				t.Errorf("%s: seed 7 warm-up %d differs between generations", w.name, i)
			}
		}
		same := true
		for i := range measA {
			same = same && bytes.Equal(measA[i].body, measC[i].body)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", w.name)
		}
		// A longer warm-up must not shift the measured sequence.
		_, measD := w.generate(7, 9, 5)
		for i := range measA {
			if !bytes.Equal(measA[i].body, measD[i].body) {
				t.Errorf("%s: warm-up count shifted measured request %d", w.name, i)
			}
		}
	}
}

func TestHotSetShares(t *testing.T) {
	for _, c := range []struct {
		name     string
		requests int
		want     float64
	}{
		{"maxssn", 200, 0.50},     // 12800 items
		{"impedance", 4000, 0.25}, // 4000 sweeps
	} {
		w, err := workloadByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 2, 3} {
			_, meas := w.generate(seed, 0, c.requests)
			hot, units := 0, 0
			for _, rq := range meas {
				hot += rq.hot
				units += rq.units
			}
			share := float64(hot) / float64(units)
			if share < c.want-0.02 || share > c.want+0.02 {
				t.Errorf("%s seed %d: hot share %.4f, want %.2f ± 0.02", c.name, seed, share, c.want)
			}
		}
	}
}

// TestRequestsServeInProcess sends generated requests of every workload
// through the in-process handler: each must answer 200 with no per-item
// error and match the in-process evaluation bit for bit.
func TestRequestsServeInProcess(t *testing.T) {
	for _, w := range workloads {
		warm, meas := w.generate(11, 2, 4)
		ev := newEvaluator(1)
		want := make([]reply, len(meas))
		for i, rq := range meas {
			r, err := w.expect(ev, rq)
			if err != nil {
				t.Fatalf("%s request %d: in-process evaluation: %v", w.name, i, err)
			}
			want[i] = r
		}
		if _, err := replayHandler(newTracer(), w, 1, warm, meas, want); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}
