package oracle

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"ssnkit/internal/circuit"
	"ssnkit/internal/spice"
)

// edit is one step of a shrink schedule: it proposes a simpler candidate
// than p, or ok false when it has none to propose.
type edit[P any] func(p P) (cand P, ok bool)

// change turns an in-place edit into an edit that proposes only real
// changes.
func change[P comparable](apply func(*P)) edit[P] {
	return func(p P) (P, bool) {
		cand := p
		apply(&cand)
		return cand, cand != p
	}
}

// shrinkBy is the one greedy shrink driver behind every oracle: it walks
// the schedule in order and re-applies each edit for as long as the
// candidate still fails, keeping only candidates that fail. The result
// therefore always reproduces the failure; a point that does not fail
// comes back unchanged.
func shrinkBy[P any](pt P, fails func(P) bool, schedule []edit[P]) P {
	if !fails(pt) {
		return pt
	}
	for _, e := range schedule {
		for {
			cand, ok := e(pt)
			if !ok || !fails(cand) {
				break
			}
			pt = cand
		}
	}
	return pt
}

// Shrink greedily reduces a disagreeing design point to a smaller one that
// still disagrees (see shrinkSchedule). Every candidate is re-Checked, so
// the returned point always reproduces the disagreement (in the worst
// case it is pt unchanged).
func Shrink(pt DesignPoint, opts spice.Options) DesignPoint {
	return transient(opts).shrink(pt)
}

// shrinkSchedule is the transient oracle's shrink schedule. Fewer drivers
// first, since N=1 is the easiest deck to stare at: binary descent, then
// linear. Then degenerate knobs: no pad capacitance, or else at most 8
// halvings of it, and a neutral source sensitivity. Last, every float is
// rounded to 3 significant digits: repro decks full of 17-digit literals
// are hostile to humans.
func shrinkSchedule(pt DesignPoint) []edit[DesignPoint] {
	cMin := pt.C / 256
	sched := []edit[DesignPoint]{
		change(func(p *DesignPoint) { p.N = max(p.N/2, 1) }),
		change(func(p *DesignPoint) { p.N = max(p.N-1, 1) }),
		change(func(p *DesignPoint) { p.C = 0 }),
		change(func(p *DesignPoint) {
			if p.C > cMin {
				p.C /= 2
			}
		}),
		change(func(p *DesignPoint) { p.A = 1 }),
	}
	for _, field := range []func(*DesignPoint) *float64{
		func(p *DesignPoint) *float64 { return &p.L },
		func(p *DesignPoint) *float64 { return &p.C },
		func(p *DesignPoint) *float64 { return &p.K },
		func(p *DesignPoint) *float64 { return &p.V0 },
		func(p *DesignPoint) *float64 { return &p.A },
		func(p *DesignPoint) *float64 { return &p.Slope },
		func(p *DesignPoint) *float64 { return &p.Vdd },
	} {
		sched = append(sched, change(func(p *DesignPoint) { f := field(p); *f = roundSig(*f, 3) }))
	}
	return sched
}

// roundSig rounds x to n significant decimal digits.
func roundSig(x float64, n int) float64 {
	if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	mag := math.Pow(10, float64(n-1)-math.Floor(math.Log10(math.Abs(x))))
	return math.Round(x*mag) / mag
}

// reproFile is the JSON shape of every oracle's repro: the point, and the
// outcome of checking it at dump time, so a reader knows what the
// disagreement looked like.
type reproFile[P, R any] struct {
	Point  P `json:"point"`
	Result R `json:"result"`
}

// writeRepro writes <dir>/<name>.json, creating dir if needed.
func writeRepro[P, R any](dir, name string, pt P, res R) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(reproFile[P, R]{Point: pt, Result: res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(js, '\n'), 0o644)
}

// LoadRepro reads the point back from any oracle's <name>.json repro.
func LoadRepro[P any](path string) (P, error) {
	var rf struct {
		Point P `json:"point"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return rf.Point, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf.Point, fmt.Errorf("oracle: parse repro %s: %w", path, err)
	}
	return rf.Point, nil
}

// DumpRepro writes the <name>.json design point + result and the matching
// <name>.cir simulation deck into dir, creating it if needed.
func DumpRepro(dir, name string, pt DesignPoint, opts spice.Options) error {
	return transient(opts).dump(dir, name, pt)
}

// writeDeck writes <dir>/<name>.cir. The deck round-trips through
// circuit.Parse, so the disagreement can be replayed with cmd/spicerun or
// any deck consumer.
func writeDeck(dir, name string, pt DesignPoint) error {
	deck, err := Deck(pt)
	if err != nil {
		return fmt.Errorf("oracle: deck for repro %s: %w", name, err)
	}
	var b strings.Builder
	if err := circuit.Format(&b, deck); err != nil {
		return fmt.Errorf("oracle: format repro %s: %w", name, err)
	}
	return os.WriteFile(filepath.Join(dir, name+".cir"), []byte(b.String()), 0o644)
}
