package oracle

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssnkit/internal/circuit"
	"ssnkit/internal/spice"
)

// TestCuratedRepros replays every design point under testdata/repros as a
// regression: the curated hard points (near-critical damping, conduction
// edge, merged large-N) must keep agreeing, and any future shrunk
// disagreement dropped into the directory will fail here until resolved.
func TestCuratedRepros(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "repros", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected at least the 3 curated repros, found %d", len(paths))
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			pt, err := LoadRepro[DesignPoint](path)
			if err != nil {
				t.Fatalf("LoadRepro: %v", err)
			}
			res := Check(pt, spice.Options{})
			if res.Err != nil {
				t.Fatalf("Check: %v", res.Err)
			}
			if !res.Pass {
				t.Fatalf("regression: %s", res)
			}
		})
	}
}

// TestCuratedReproDecksRoundTrip re-simulates each curated .cir deck
// through circuit.Parse and checks it reproduces the same bounce as the
// programmatic build — pinning the whole repro pipeline (level=4 ASDM
// model card included) end to end.
func TestCuratedReproDecksRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "repros", "*.cir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected at least 3 curated decks, found %d", len(paths))
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".cir")
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			deck, err := circuit.Parse(f)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if deck.Tran == nil {
				t.Fatal("deck has no .tran card")
			}
			eng, err := spice.New(deck.Circuit, spice.Options{})
			if err != nil {
				t.Fatalf("spice.New: %v", err)
			}
			set, err := eng.Transient(*deck.Tran)
			if err != nil {
				t.Fatalf("Transient: %v", err)
			}
			w := set.Get("v(vssi)")
			if w == nil {
				t.Fatal("deck simulation lost v(vssi)")
			}
			_, fromDeck := w.Max()

			pt, err := LoadRepro[DesignPoint](strings.TrimSuffix(path, ".cir") + ".json")
			if err != nil {
				t.Fatalf("LoadRepro: %v", err)
			}
			fromBuild, _, err := Simulate(pt, spice.Options{})
			if err != nil {
				t.Fatalf("Simulate: %v", err)
			}
			// The parsed deck carries %.9g-rounded values; allow for that.
			if rel := math.Abs(fromDeck-fromBuild) / fromBuild; rel > 1e-8 {
				t.Fatalf("deck and build disagree: %.9g vs %.9g (rel %.3g)", fromDeck, fromBuild, rel)
			}
		})
	}
}
