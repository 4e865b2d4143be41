package device

import (
	"fmt"

	"ssnkit/internal/fit"
)

// ExtractSpec names one ASDM extraction by its inputs: process kit, corner,
// driver polarity and width. Extraction is a pure function of these four
// values — equal specs always fit the identical model — which makes the
// normalized spec a sound cache key for extraction reuse. ExtractASDM
// solves a fresh least-squares problem over a (Vg, Vs) grid on every call,
// the expensive repeated step when evaluating SSN in bulk, so batch
// consumers (the ssnserve evaluation service, sweep harnesses) key their
// caches on this.
type ExtractSpec struct {
	Process string  // kit name: "c018", "c025" or "c035"
	Corner  Corner  // process corner applied via Process.At
	Rail    bool    // true: pull-up driver (power-rail droop); false: pull-down
	Size    float64 // driver width multiple; <= 0 means 1x
}

// Normalized maps the degenerate width encodings (Size <= 0) onto 1x, so
// equivalent specs compare equal and share a Key.
func (s ExtractSpec) Normalized() ExtractSpec {
	if s.Size <= 0 {
		s.Size = 1
	}
	return s
}

// Key returns a canonical string identity for the spec.
func (s ExtractSpec) Key() string {
	s = s.Normalized()
	pol := "dn"
	if s.Rail {
		pol = "up"
	}
	return fmt.Sprintf("%s|%s|%s|%gx", s.Process, s.Corner, pol, s.Size)
}

// Extract resolves the process kit, shifts it to the corner and fits the
// ASDM over the standard SSN region, returning the model with its
// goodness-of-fit statistics.
func (s ExtractSpec) Extract() (ASDM, fit.Stats, error) {
	s = s.Normalized()
	proc, err := ProcessByName(s.Process)
	if err != nil {
		return ASDM{}, fit.Stats{}, err
	}
	proc = proc.At(s.Corner)
	golden := proc.Driver(s.Size)
	if s.Rail {
		golden = proc.PullUpDriver(s.Size)
	}
	return ExtractASDM(golden, ExtractRegion{Vdd: proc.Vdd})
}

// Vdd returns the supply voltage of the spec's process kit.
func (s ExtractSpec) Vdd() (float64, error) {
	proc, err := ProcessByName(s.Process)
	if err != nil {
		return 0, err
	}
	return proc.Vdd, nil
}
