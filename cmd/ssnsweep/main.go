// Command ssnsweep explores the SSN design space with the closed-form
// models: sweep one or more variables (drivers, inductance, capacitance,
// rise time or driver size) over a grid and print/export the maximum
// noise, the operating case and optional transistor-level verification per
// point. Evaluation runs on the internal/sweep engine: chunked, parallel
// (-workers) and optionally refined around Table 1 case boundaries
// (-refine).
//
// Usage:
//
//	ssnsweep -var n -from 4 -to 32 -step 4
//	ssnsweep -var c -from 0.5p -to 20p -points 9 -log
//	ssnsweep -var tr -from 0.2n -to 4n -points 8 -verify -o sweep.csv
//	ssnsweep -axis n=4:32:8 -axis l=1n:12n:6 -workers 8 -o grid.csv
//	ssnsweep -axis c=0.5p:40p:16:log -refine 3
//
// Fixed parameters mirror ssncalc (-process, -corner, -package, -pads, -n,
// -size, -tr, -l, -c).
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ssnkit/internal/cliflags"
	"ssnkit/internal/device"
	"ssnkit/internal/driver"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/serve"
	"ssnkit/internal/spice"
	"ssnkit/internal/ssn"
	"ssnkit/internal/sweep"
	"ssnkit/internal/textplot"
	"ssnkit/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssnsweep:", err)
		os.Exit(1)
	}
}

// row is one rendered sweep point: the axis values in grid order plus the
// evaluated outputs.
type row struct {
	vals   []float64
	vmax   float64
	cse    ssn.Case
	simMax float64 // NaN unless -verify
	depth  int
}

// legacyAxis reproduces the single-variable flag set of earlier releases:
// -var/-from/-to with -points (-log) or -step.
func legacyAxis(varName, fromStr, toStr, stepStr string, points int, logScale bool) (sweep.Axis, error) {
	var a sweep.Axis
	if fromStr == "" || toStr == "" {
		return a, fmt.Errorf("need -from and -to (or -axis)")
	}
	from, err := units.Parse(fromStr)
	if err != nil {
		return a, fmt.Errorf("-from: %w", err)
	}
	to, err := units.Parse(toStr)
	if err != nil {
		return a, fmt.Errorf("-to: %w", err)
	}
	if to <= from {
		return a, fmt.Errorf("-to must exceed -from")
	}
	a = sweep.Axis{Name: varName, From: from, To: to, Points: points, Log: logScale}
	switch {
	case points > 1:
		if logScale && from <= 0 {
			return a, fmt.Errorf("-log needs a positive -from")
		}
	case stepStr != "":
		step, err := units.Parse(stepStr)
		if err != nil || step <= 0 {
			return a, fmt.Errorf("-step: bad value %q", stepStr)
		}
		// Count the arithmetic series from..to and pin the axis to its
		// actual last sample, so linear spacing lands on from + i*step.
		cnt := 0
		for x := from; x <= to*(1+1e-12); x += step {
			cnt++
		}
		a.Points = cnt
		a.To = from + step*float64(cnt-1)
		a.Log = false
	default:
		return a, fmt.Errorf("need -points or -step")
	}
	return a, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssnsweep", flag.ContinueOnError)
	var axes []sweep.Axis
	fs.Func("axis", "swept axis name=from:to:points[:log] (repeatable; n, l, c, slope, tr, size)",
		func(s string) error {
			a, err := cliflags.ParseAxis(s)
			if err != nil {
				return err
			}
			axes = append(axes, a)
			return nil
		})
	var (
		varName  = fs.String("var", "n", "swept variable: n, l, c, tr, size (single-axis form)")
		fromStr  = fs.String("from", "", "sweep start (engineering notation)")
		toStr    = fs.String("to", "", "sweep end")
		stepStr  = fs.String("step", "", "linear step (alternative to -points)")
		points   = fs.Int("points", 0, "number of points (with -log: logarithmic spacing)")
		logScale = fs.Bool("log", false, "logarithmic spacing (needs -points)")
		verify   = fs.Bool("verify", false, "run a transistor-level simulation at every point")
		outPath  = fs.String("o", "", "write the sweep to this CSV file")
		workers  = fs.Int("workers", 0, "parallel evaluators (0 = GOMAXPROCS)")
		chunk    = fs.Int("chunk", 0, "grid points per unit of work (0 = 1024)")
		refine   = fs.Int("refine", 0, "adaptive refinement depth around case boundaries")
		loadStr  = fs.String("load", "20p", "per-driver load (verification only)")
	)
	fixed := cliflags.Register(fs, 16)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(axes) > 0 && (*fromStr != "" || *toStr != "") {
		return fmt.Errorf("use either -axis or -var/-from/-to, not both")
	}
	if len(axes) == 0 {
		a, err := legacyAxis(*varName, *fromStr, *toStr, *stepStr, *points, *logScale)
		if err != nil {
			return err
		}
		axes = []sweep.Axis{a}
	}
	r, err := fixed.Resolve()
	if err != nil {
		return err
	}
	load, err := units.Parse(*loadStr)
	if err != nil {
		return fmt.Errorf("-load: %w", err)
	}

	// The sweep engine pulls driver re-extraction through the same LRU the
	// HTTP service uses, so a size axis re-fits each width exactly once.
	cache := serve.NewExtractCache(64, nil)
	spec := device.ExtractSpec{Process: fixed.Process, Corner: r.Corner, Size: r.Size}
	baseDev, _, err := cache.Get(spec)
	if err != nil {
		return err
	}
	g := sweep.Grid{
		Base: ssn.Params{
			N: r.N, Dev: baseDev, Vdd: r.Proc.Vdd,
			Slope: r.Proc.Vdd / r.TR, L: r.Gnd.L, C: r.Gnd.C,
		},
		Axes: axes,
		Spec: spec,
	}
	cfg := sweep.Config{
		Workers:     *workers,
		ChunkSize:   *chunk,
		RefineDepth: *refine,
		Extract: func(s device.ExtractSpec) (device.ASDM, error) {
			m, _, err := cache.Get(s)
			return m, err
		},
	}

	var rows []row
	sink := func(c *sweep.Chunk) error {
		for _, pt := range c.Points {
			if pt.Err != nil {
				// CLI semantics: one bad point aborts the sweep with a located
				// error (the HTTP endpoint reports per-point errors in place).
				return fmt.Errorf("%s: %w", describePoint(axes, pt.Values), pt.Err)
			}
			// pt.Values is backed by a pooled chunk buffer and only valid
			// during this call; the row outlives it, so copy.
			rows = append(rows, row{vals: append([]float64(nil), pt.Values...), vmax: pt.VMax, cse: pt.Case, simMax: math.NaN(), depth: pt.Depth})
		}
		return nil
	}
	if _, err := sweep.RunChunks(context.Background(), g, cfg, sink); err != nil {
		return err
	}
	if len(axes) == 1 {
		// Refined points arrive after the base grid; merge them into axis
		// order so tables and plots stay monotone.
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].vals[0] < rows[j].vals[0] })
	}
	for i := 0; *verify && i < len(rows); i++ {
		// Only the simulated points need their parameters resolved.
		p, err := g.Params(rows[i].vals, cfg.Extract)
		size := r.Size
		if k := slices.IndexFunc(axes, func(a sweep.Axis) bool { return a.Name == sweep.AxisSize }); k >= 0 {
			size = rows[i].vals[k]
		}
		var res *driver.SimResult
		if err == nil {
			res, err = driver.Simulate(driver.ArrayConfig{
				Process: r.Proc, DriverSize: size, N: p.N, Load: load,
				Ground: pkgmodel.GroundNet{Pads: r.Pads, L: p.L, C: p.C},
				Rise:   p.Vdd / p.Slope, Merged: true,
			}, spice.Options{}, 0, 0)
		}
		if err != nil {
			return fmt.Errorf("verify %s: %w", describePoint(axes, rows[i].vals), err)
		}
		rows[i].simMax = res.MaxSSNWithinRamp()
	}

	render(out, axes, rows, r, *refine > 0)
	if *outPath != "" {
		if err := writeCSV(*outPath, axes, rows, *refine > 0); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nsweep written to %s\n", *outPath)
	}
	return nil
}

// describePoint labels a grid point for error messages: "n = 8, l = 2e-09".
func describePoint(axes []sweep.Axis, vals []float64) string {
	parts := make([]string, len(axes))
	for k, a := range axes {
		parts[k] = fmt.Sprintf("%s = %g", a.Name, vals[k])
	}
	return strings.Join(parts, ", ")
}

// render prints the header, the text plot (single-axis sweeps) and the
// result table.
func render(out io.Writer, axes []sweep.Axis, rows []row, r cliflags.Resolved, withDepth bool) {
	if len(axes) == 1 {
		fmt.Fprintf(out, "sweep of %s over [%g, %g] (%d points), %s/%s, N=%d, tr=%s\n\n",
			axes[0].Name, axes[0].From, axes[0].To, len(rows),
			r.Proc.Name, r.Pack.Name, r.N, units.Format(r.TR, "s"))
	} else {
		names := make([]string, len(axes))
		for k, a := range axes {
			names[k] = a.Name
		}
		fmt.Fprintf(out, "sweep of %s grid (%d points), %s/%s, N=%d, tr=%s\n\n",
			strings.Join(names, " x "), len(rows),
			r.Proc.Name, r.Pack.Name, r.N, units.Format(r.TR, "s"))
	}

	header := make([]string, 0, len(axes)+4)
	for _, a := range axes {
		header = append(header, a.Name)
	}
	header = append(header, "vmax (V)", "case", "sim (V)")
	if withDepth {
		header = append(header, "depth")
	}
	table := [][]string{header}
	var px, py, sy []float64
	for _, rw := range rows {
		cells := make([]string, 0, len(header))
		for _, v := range rw.vals {
			cells = append(cells, fmt.Sprintf("%.4g", v))
		}
		sim := "-"
		if !math.IsNaN(rw.simMax) {
			sim = fmt.Sprintf("%.4f", rw.simMax)
			sy = append(sy, rw.simMax)
		}
		cells = append(cells, fmt.Sprintf("%.4f", rw.vmax), rw.cse.String(), sim)
		if withDepth {
			cells = append(cells, strconv.Itoa(rw.depth))
		}
		table = append(table, cells)
		if len(axes) == 1 {
			px = append(px, rw.vals[0])
			py = append(py, rw.vmax)
		}
	}
	if len(axes) == 1 {
		series := []textplot.Series{{Name: "model", X: px, Y: py, Marker: '*'}}
		if len(sy) == len(px) {
			series = append(series, textplot.Series{Name: "sim", X: px, Y: sy, Marker: '.'})
		}
		fmt.Fprint(out, textplot.Plot("", series, 72, 16))
	}
	fmt.Fprint(out, textplot.Table(table))
}

// writeCSV exports the sweep, one row per point, axis columns first.
func writeCSV(path string, axes []sweep.Axis, rows []row, withDepth bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	header := make([]string, 0, len(axes)+4)
	for _, a := range axes {
		header = append(header, a.Name)
	}
	header = append(header, "vmax", "case", "sim")
	if withDepth {
		header = append(header, "depth")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, rw := range rows {
		cells := make([]string, 0, len(header))
		for _, v := range rw.vals {
			cells = append(cells, strconv.FormatFloat(v, 'g', 8, 64))
		}
		sim := ""
		if !math.IsNaN(rw.simMax) {
			sim = strconv.FormatFloat(rw.simMax, 'g', 8, 64)
		}
		cells = append(cells,
			strconv.FormatFloat(rw.vmax, 'g', 8, 64), rw.cse.String(), sim)
		if withDepth {
			cells = append(cells, strconv.Itoa(rw.depth))
		}
		if err := cw.Write(cells); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
