package spice

import (
	"math"
	"strings"
	"testing"
	"time"

	"ssnkit/internal/circuit"
)

// TestTransientPeakMatchesTransient pins the peak recorder to the full one:
// for every node of every testdata deck, fixed-step and adaptive,
// TransientPeak reports the bits of Transient's v(node).Max() and the
// waveform's sample count.
func TestTransientPeakMatchesTransient(t *testing.T) {
	pinned := 0
	for _, path := range goldenDecks(t) {
		deck := parseDeckFile(t, path)
		for _, adaptive := range []bool{false, true} {
			opts := Options{Adaptive: adaptive}
			set, err := newDeckEngine(t, deck, opts).Transient(*deck.Tran)
			if err != nil {
				t.Fatalf("%s adaptive=%v: %v", path, adaptive, err)
			}
			for _, node := range deck.Circuit.NodeNames()[1:] {
				w := set.Get("v(" + node + ")")
				if w == nil {
					t.Fatalf("%s: no v(%s)", path, node)
				}
				wantT, wantV := w.Max()
				eng := newDeckEngine(t, deck, opts)
				if eng.slot[deck.Circuit.LookupNode(node)] < -1 {
					pinned++
				}
				gotT, gotV, n, err := eng.TransientPeak(*deck.Tran, node)
				if err != nil {
					t.Fatalf("%s adaptive=%v v(%s): %v", path, adaptive, node, err)
				}
				if math.Float64bits(gotT) != math.Float64bits(wantT) ||
					math.Float64bits(gotV) != math.Float64bits(wantV) || n != w.Len() {
					t.Errorf("%s adaptive=%v v(%s): peak (%v, %v) over %d samples, want (%v, %v) over %d",
						path, adaptive, node, gotT, gotV, n, wantT, wantV, w.Len())
				}
			}
		}
	}
	if pinned == 0 {
		t.Fatal("no testdata node is source-pinned; the known-node branch went untested")
	}
}

func TestTransientPeakRejectsNode(t *testing.T) {
	deck := parseDeckFile(t, "testdata/rlc.cir")
	for _, node := range []string{"nosuch", "0", "gnd"} {
		if _, _, _, err := newDeckEngine(t, deck, Options{}).TransientPeak(*deck.Tran, node); err == nil {
			t.Errorf("TransientPeak(%q) returned no error", node)
		}
	}
}

// TestTransientPeakAllocsFlat checks that the peak recorder keeps nothing
// per step: quartering the step leaves the run's allocations unchanged.
func TestTransientPeakAllocsFlat(t *testing.T) {
	deck := parseDeckFile(t, "testdata/rlc.cir")
	allocs := func(step float64) float64 {
		spec := *deck.Tran
		spec.Step = step
		return testing.AllocsPerRun(3, func() {
			eng, err := New(deck.Circuit, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := eng.TransientPeak(spec, "out"); err != nil {
				t.Fatal(err)
			}
		})
	}
	coarse, fine := allocs(deck.Tran.Step), allocs(deck.Tran.Step/4)
	if fine > coarse {
		t.Fatalf("TransientPeak allocs grew from %v to %v when the step was divided by 4", coarse, fine)
	}
}

// TestTransientStepBelowULP runs a deck whose step cannot advance time
// (t+h == t at t = 1): every entry point must refuse it promptly instead of
// recording the same instant forever.
func TestTransientStepBelowULP(t *testing.T) {
	const src = "sub-ULP step\nv1 in 0 dc 1\nr1 in out 1k\nc1 out 0 1p\n.tran 1e-17 2 1\n.end\n"
	deck, err := circuit.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// The engines are built here, so that only the test's goroutine calls
	// t.Fatal.
	full, peak := newDeckEngine(t, deck, Options{}), newDeckEngine(t, deck, Options{})
	runs := map[string]func() error{
		"Transient": func() error {
			_, err := full.Transient(*deck.Tran)
			return err
		},
		"TransientPeak": func() error {
			_, _, _, err := peak.TransientPeak(*deck.Tran, "out")
			return err
		},
		"Run": func() error {
			_, _, err := Run(deck, Options{})
			return err
		},
	}
	for name, run := range runs {
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "does not advance") {
				t.Errorf("%s: error %v, want a step that does not advance", name, err)
			}
		case <-time.After(4 * time.Second):
			t.Fatalf("%s: still stepping after 4s", name)
		}
	}
}

func TestTransientRejectsNaNSpec(t *testing.T) {
	deck := parseDeckFile(t, "testdata/rlc.cir")
	for _, spec := range []circuit.TranSpec{
		{Step: math.NaN(), Stop: deck.Tran.Stop},
		{Step: deck.Tran.Step, Stop: math.NaN()},
	} {
		if _, err := newDeckEngine(t, deck, Options{}).Transient(spec); err == nil {
			t.Errorf("Transient(%+v) returned no error", spec)
		}
	}
}
