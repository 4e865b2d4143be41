// Package cliflags registers and resolves the fixed-parameter flags every
// SSN command-line tool shares: the process kit and corner, the driver
// size, the package ground net (with explicit L/C overrides), the driver
// count and the input rise time. ssncalc and ssnsweep parse the same
// physical design point; keeping one definition means one help text, one
// unit parser and one validation path. ParseAxis is the one parser of the
// swept -axis flag that ssnsweep and ssndist share.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"ssnkit/internal/device"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/sweep"
	"ssnkit/internal/units"
)

// Fixed holds the raw flag values as parsed; Resolve turns them into
// physical quantities.
type Fixed struct {
	Process string
	Corner  string
	Package string
	Pads    int
	N       int
	Size    float64
	TR      string
	L       string
	C       string
}

// Register installs the shared fixed-parameter flags on fs. defaultN lets
// each tool keep its historical default driver count.
func Register(fs *flag.FlagSet, defaultN int) *Fixed {
	f := &Fixed{}
	fs.StringVar(&f.Process, "process", "c018", "process kit: c018, c025 or c035")
	fs.StringVar(&f.Corner, "corner", "tt", "process corner: tt, ss or ff")
	fs.StringVar(&f.Package, "package", "pga", "package class: pga, qfp, bga, cob")
	fs.IntVar(&f.Pads, "pads", 1, "paralleled ground pads")
	fs.IntVar(&f.N, "n", defaultN, "number of simultaneously switching drivers")
	fs.Float64Var(&f.Size, "size", 1, "driver width multiple")
	fs.StringVar(&f.TR, "tr", "1n", "input rise time (e.g. 1n)")
	fs.StringVar(&f.L, "l", "", "override ground inductance (e.g. 2.5n)")
	fs.StringVar(&f.C, "c", "", "override ground capacitance (e.g. 2p)")
	return f
}

// Resolved is the validated physical form of the Fixed flags.
type Resolved struct {
	Proc   device.Process // corner-shifted
	Corner device.Corner
	Pack   pkgmodel.Package
	Gnd    pkgmodel.GroundNet // pads applied, explicit L/C folded in
	N      int
	Size   float64
	TR     float64 // seconds
	Pads   int
}

// Resolve validates the flags and converts them to model inputs.
func (f *Fixed) Resolve() (Resolved, error) {
	var r Resolved
	proc, err := device.ProcessByName(f.Process)
	if err != nil {
		return r, err
	}
	crn, err := device.CornerByName(f.Corner)
	if err != nil {
		return r, err
	}
	r.Proc = proc.At(crn)
	r.Corner = crn
	if r.Pack, err = pkgmodel.ByName(f.Package); err != nil {
		return r, err
	}
	r.Gnd = r.Pack.Ground(f.Pads)
	if f.L != "" {
		if r.Gnd.L, err = units.Parse(f.L); err != nil {
			return r, fmt.Errorf("-l: %w", err)
		}
	}
	if f.C != "" {
		if r.Gnd.C, err = units.Parse(f.C); err != nil {
			return r, fmt.Errorf("-c: %w", err)
		}
	}
	if r.TR, err = units.Parse(f.TR); err != nil {
		return r, fmt.Errorf("-tr: %w", err)
	}
	if r.TR <= 0 {
		return r, fmt.Errorf("rise time must be positive")
	}
	r.N = f.N
	r.Size = f.Size
	r.Pads = f.Pads
	return r, nil
}

// ParseAxis decodes one -axis flag: name=from:to:points[:log]. The point
// count must be a whole decimal integer.
func ParseAxis(s string) (sweep.Axis, error) {
	var a sweep.Axis
	name, rest, ok := strings.Cut(s, "=")
	if !ok {
		return a, fmt.Errorf("axis %q: want name=from:to:points[:log]", s)
	}
	parts := strings.Split(rest, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return a, fmt.Errorf("axis %q: want name=from:to:points[:log]", s)
	}
	var err error
	if a.From, err = units.Parse(parts[0]); err != nil {
		return a, fmt.Errorf("axis %s: from: %w", name, err)
	}
	if a.To, err = units.Parse(parts[1]); err != nil {
		return a, fmt.Errorf("axis %s: to: %w", name, err)
	}
	if a.Points, err = strconv.Atoi(parts[2]); err != nil {
		return a, fmt.Errorf("axis %s: points: %w", name, err)
	}
	if len(parts) == 4 {
		if parts[3] != "log" {
			return a, fmt.Errorf("axis %s: unknown option %q (only \"log\")", name, parts[3])
		}
		a.Log = true
	}
	a.Name = name
	return a, nil
}
