package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"ssnkit/internal/circuit"
	"ssnkit/internal/colwire"
	"ssnkit/internal/device"
	"ssnkit/internal/driver"
	"ssnkit/internal/oracle"
	"ssnkit/internal/pdn"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/serve"
	"ssnkit/internal/spice"
	"ssnkit/internal/ssn"
	"ssnkit/internal/sweep"
)

// This file is the traced run's direct path: each workload's requests
// replayed through the public functions the handler calls, one span per
// call, plus the probes that need a controlled setting (cold extraction,
// a seeded plan cache, serial-vs-parallel runs).

// layerPlan wires each workload's direct replay, the span names that count
// as compute (the handler time left over is decode, admission, encode and
// flush), and its probe.
type layerPlan struct {
	direct  func(t *tracer, ev *evaluator, req string, root int, rq request) error
	compute []string
	probe   func(t *tracer, ev *evaluator, warm, reqs []request, nproc int) error
}

var layers = map[string]layerPlan{
	"maxssn": {direct: directMaxSSN, compute: []string{"serve.resolve", "ssn.plan.compile", "ssn.sens"},
		probe: probeMaxSSN},
	"sweep-ndjson": {direct: directSweep(false), compute: []string{"sweep.run"}, probe: noProbe},
	"sweep-ssnc":   {direct: directSweep(true), compute: []string{"sweep.run"}, probe: noProbe},
	"impedance": {direct: directImpedance, compute: []string{"pdn.new_sweeper", "pdn.run_profile"},
		probe: probeImpedance},
	"optimize": {direct: directOptimize, compute: []string{"pdn.optimize"}, probe: noProbe},
	"oracle": {direct: directOracle, compute: []string{"oracle.generate", "ssn.plan.compile",
		"oracle.build_deck", "spice.tran.compile", "spice.tran"}, probe: probeOracle},
}

func noProbe(*tracer, *evaluator, []request, []request, int) error { return nil }

func directMaxSSN(t *tracer, ev *evaluator, req string, root int, rq request) error {
	items := rq.spec.([]serve.EvalItem)
	ps := make([]ssn.Params, len(items))
	err := t.do(req, root, "serve.resolve", len(items), func() error {
		for i, it := range items {
			p, err := ev.resolve(it)
			if err != nil {
				return err
			}
			ps[i] = p
		}
		return nil
	})
	if err != nil {
		return err
	}
	var pl ssn.Plan
	err = t.do(req, root, "ssn.plan.compile", len(ps), func() error {
		for _, p := range ps {
			if err := pl.Compile(p, ssn.PlanFixed); err != nil {
				return err
			}
			_, _, _ = pl.VMax(), pl.Case(), pl.VMaxTime()
		}
		return nil
	})
	if err != nil {
		return err
	}
	var sens []ssn.Params
	for i, it := range items {
		if it.Sensitivity {
			sens = append(sens, ps[i])
		}
	}
	if len(sens) == 0 {
		return nil
	}
	return t.do(req, root, "ssn.sens", len(sens), func() error {
		for _, p := range sens {
			if _, err := ssn.LCSensitivity(p, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

// probeMaxSSN times cold extractions of the first replayed specs, and
// PlanCache hits on items the warm-up seeded and misses on fresh items,
// on a fresh cache seeded with the warm-up items.
func probeMaxSSN(t *tracer, ev *evaluator, warm, reqs []request, _ int) error {
	const maxColdSpecs = 8
	pc := serve.NewPlanCache(4096)
	seeded := map[ssn.Params]bool{}
	for _, rq := range warm {
		for _, it := range rq.spec.([]serve.EvalItem) {
			p, err := ev.resolve(it)
			if err != nil {
				return err
			}
			_, _, _, _ = pc.Get(p)
			seeded[p] = true
		}
	}
	var hits, misses []ssn.Params
	fresh := map[ssn.Params]bool{}
	cold := map[string]bool{}
	for _, rq := range reqs {
		for _, it := range rq.spec.([]serve.EvalItem) {
			p, err := ev.resolve(it)
			if err != nil {
				return err
			}
			switch {
			case seeded[p]:
				hits = append(hits, p)
			case !fresh[p]:
				fresh[p] = true
				misses = append(misses, p)
			}
			corner, err := device.CornerByName(it.Corner)
			if err != nil {
				return err
			}
			spec := device.ExtractSpec{Process: it.Process, Corner: corner, Rail: it.Rail, Size: it.Size}
			if cold[spec.Key()] || len(cold) == maxColdSpecs {
				continue
			}
			cold[spec.Key()] = true
			err = t.do("maxssn/probe", 0, "device.extract", 1, func() error {
				_, _, err := spec.Extract()
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	getAll := func(name string, ps []ssn.Params) error {
		return t.do("maxssn/probe", 0, name, len(ps), func() error {
			for _, p := range ps {
				if _, _, _, err := pc.Get(p); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := getAll("serve.plan_cache.hit", hits); err != nil {
		return err
	}
	return getAll("serve.plan_cache.miss", misses)
}

// applyAxis sets one swept value on p the way the sweep engine reads it.
func applyAxis(p *ssn.Params, axis string, v float64) {
	switch axis {
	case sweep.AxisN:
		p.N = max(1, int(math.Round(v)))
	case sweep.AxisL:
		p.L = v
	case sweep.AxisC:
		p.C = v
	case sweep.AxisSlope:
		p.Slope = v
	case sweep.AxisRise:
		p.Slope = p.Vdd / v
	}
}

// directSweep replays a sweep through sweep.Run with a discarding sink,
// through the batch kernels over each inner-axis run, and, for the
// columnar response, through colwire encoding of the reply's columns.
func directSweep(columnar bool) func(*tracer, *evaluator, string, int, request) error {
	return func(t *tracer, ev *evaluator, req string, root int, rq request) error {
		g, err := ev.sweepGrid(rq.spec.(sweepBody))
		if err != nil {
			return err
		}
		total := g.Total()
		cols := make([][]float64, 5) // outer, inner, vmax, case_code, depth
		err = t.do(req, root, "sweep.run", total, func() error {
			_, err := sweep.Run(context.Background(), g, sweep.Config{Workers: ev.workers}, func(pt sweep.Point) error {
				return pt.Err
			})
			return err
		})
		if err != nil {
			return err
		}
		if err := kernelSpan(t, req, root, g); err != nil {
			return err
		}
		if !columnar {
			return nil
		}
		_, err = sweep.Run(context.Background(), g, sweep.Config{Workers: ev.workers}, func(pt sweep.Point) error {
			for k, v := range []float64{pt.Values[0], pt.Values[1], pt.VMax, float64(pt.Case), float64(pt.Depth)} {
				cols[k] = append(cols[k], v)
			}
			return nil
		})
		if err != nil {
			return err
		}
		names := []string{g.Axes[0].Name, g.Axes[1].Name, "vmax", "case_code", "depth"}
		const blockRows = 1024 // the rows per block of a columnar sweep stream
		var buf []byte
		return t.do(req, root, "colwire.encode", total, func() error {
			for lo := 0; lo < total; lo += blockRows {
				hi := min(lo+blockRows, total)
				blk := colwire.Block{Columns: make([]colwire.Column, len(names))}
				for k, name := range names {
					blk.Columns[k] = colwire.Column{Name: name, Values: cols[k][lo:hi]}
				}
				var err error
				if buf, err = blk.AppendTo(buf[:0]); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// kernelSpan times VMaxCaseBatch/VMaxCaseBatchN over every inner-axis run
// of a two-axis grid; the per-run plans compile outside the span.
func kernelSpan(t *tracer, req string, root int, g sweep.Grid) error {
	outer, inner := g.Axes[0], g.Axes[1]
	iv := inner.Values()
	axis := map[string]ssn.PlanAxis{sweep.AxisN: ssn.PlanAxisN, sweep.AxisL: ssn.PlanAxisL,
		sweep.AxisC: ssn.PlanAxisC, sweep.AxisSlope: ssn.PlanAxisSlope, sweep.AxisRise: ssn.PlanAxisSlope}[inner.Name]
	vals := make([]float64, len(iv))
	ns := make([]int, len(iv))
	for i, v := range iv {
		q := g.Base
		applyAxis(&q, inner.Name, v)
		vals[i], ns[i] = v, q.N
		if inner.Name == sweep.AxisRise {
			vals[i] = q.Slope
		}
	}
	ov := outer.Values()
	plans := make([]ssn.Plan, len(ov))
	for i, v := range ov {
		q := g.Base
		applyAxis(&q, outer.Name, v)
		if err := plans[i].Compile(q, axis); err != nil {
			return err
		}
	}
	dst := make([]float64, len(iv))
	cases := make([]ssn.Case, len(iv))
	return t.do(req, root, "ssn.kernel", len(ov)*len(iv), func() error {
		for i := range plans {
			if axis == ssn.PlanAxisN {
				plans[i].VMaxCaseBatchN(dst, cases, ns)
			} else {
				plans[i].VMaxCaseBatch(dst, cases, vals)
			}
		}
		return nil
	})
}

// buildPDN times the mesh synthesis of a request.
func buildPDN(t *tracer, req string, root int, body impedanceBody) (*pkgmodel.PDNGrid, []float64, *circuit.Circuit, int, error) {
	var (
		grid  *pkgmodel.PDNGrid
		freqs []float64
		ckt   *circuit.Circuit
		obs   int
	)
	err := t.do(req, root, "pkgmodel.build", 1, func() error {
		var err error
		if grid, freqs, err = pdnGrid(body); err != nil {
			return err
		}
		ckt, obs, err = grid.Build()
		return err
	})
	return grid, freqs, ckt, obs, err
}

// acProbeFreqs is the frequencies per request at which the AC engine's
// refactor, solve and adjoint costs are separated.
const acProbeFreqs = 8

// acProbe compiles a fresh AC engine and, at a spread of the request's
// frequencies, times a solve at a new ω (refactor + solve) and a repeat
// at the same ω (solve only: an unchanged ω reuses the factorization), or
// with adjoint set, a repeat and an ImpedanceSens at the factored ω.
func acProbe(t *tracer, req string, root int, ckt *circuit.Circuit, obs int, freqs []float64, adjoint bool) error {
	var eng *spice.ACEngine
	err := t.do(req, root, "spice.ac.compile", 1, func() error {
		var err error
		eng, err = spice.NewAC(ckt, spice.ACOptions{})
		return err
	})
	if err != nil {
		return err
	}
	t.count("spice.ac.unknowns", float64(eng.NumUnknowns()))
	var sens []spice.SensEntry
	for k := 0; k < acProbeFreqs; k++ {
		w := 2 * math.Pi * freqs[k*len(freqs)/acProbeFreqs]
		impedance := func() error { _, err := eng.Impedance(w, obs); return err }
		first, repeat := "spice.ac.impedance_new", "spice.ac.impedance_repeat"
		if adjoint {
			first, repeat = "spice.ac.sens_factor", "spice.ac.sens_base"
		}
		if err := t.do(req, root, first, 1, impedance); err != nil {
			return err
		}
		if err := t.do(req, root, repeat, 1, impedance); err != nil {
			return err
		}
		if adjoint {
			err := t.do(req, root, "spice.ac.impedance_sens", 1, func() error {
				var err error
				_, sens, err = eng.ImpedanceSens(w, obs, sens)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func directImpedance(t *tracer, ev *evaluator, req string, root int, rq request) error {
	grid, freqs, ckt, obs, err := buildPDN(t, req, root, rq.spec.(impedanceBody))
	if err != nil {
		return err
	}
	var sw *pdn.Sweeper
	err = t.do(req, root, "pdn.new_sweeper", 1, func() error {
		var err error
		sw, err = pdn.NewSweeper(grid, pdn.Config{Workers: ev.workers})
		return err
	})
	if err != nil {
		return err
	}
	err = t.do(req, root, "pdn.run_profile", 1, func() error {
		_, err := sw.RunProfile(context.Background(), freqs)
		return err
	})
	if err != nil {
		return err
	}
	return acProbe(t, req, root, ckt, obs, freqs, false)
}

// withProcs runs fn with GOMAXPROCS raised to n: the parent is pinned to
// one proc, and the parallel-efficiency probes need them all.
func withProcs(n int, fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return fn()
}

// probeImpedance times RunProfile at one worker and at nproc workers on
// the first replayed requests, each after an untimed warm-up call.
func probeImpedance(t *tracer, _ *evaluator, _, reqs []request, nproc int) error {
	const probes = 2
	return withProcs(nproc, func() error {
		for i, rq := range reqs[:min(probes, len(reqs))] {
			grid, freqs, err := pdnGrid(rq.spec.(impedanceBody))
			if err != nil {
				return err
			}
			for _, workers := range []int{1, nproc} {
				sw, err := pdn.NewSweeper(grid, pdn.Config{Workers: workers})
				if err != nil {
					return err
				}
				run := func() error { _, err := sw.RunProfile(context.Background(), freqs); return err }
				if err := run(); err != nil {
					return err
				}
				name := "pdn.run_profile.w1"
				if workers > 1 {
					name = "pdn.run_profile.wn"
				}
				if err := t.do(fmt.Sprintf("impedance/probe%d", i), 0, name, 1, run); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func directOptimize(t *tracer, ev *evaluator, req string, root int, rq request) error {
	body := rq.spec.(impedanceBody)
	grid, freqs, ckt, obs, err := buildPDN(t, req, root, body)
	if err != nil {
		return err
	}
	err = t.do(req, root, "pdn.optimize", 1, func() error {
		res, err := pdn.OptimizeDecaps(context.Background(), pdn.OptimizeSpec{
			Grid: grid, Freqs: freqs, DecapC: body.DecapC, DecapESR: body.DecapESR,
			MaxDecaps: body.MaxDecaps, Config: pdn.Config{Workers: ev.workers},
		})
		if err == nil {
			t.count("pdn.optimize.placements", float64(len(res.Placements)))
		}
		return err
	})
	if err != nil {
		return err
	}
	return acProbe(t, req, root, ckt, obs, freqs, true)
}

func directOracle(t *tracer, _ *evaluator, req string, root int, rq request) error {
	q := rq.spec.(oracleQuery)
	for i := 0; i < q.Points; i++ {
		var (
			pt   oracle.DesignPoint
			ckt  *circuit.Circuit
			tran circuit.TranSpec
			eng  *spice.Engine
			pl   ssn.Plan
		)
		steps := []func() error{
			func() error {
				var ok bool
				if pt, ok = oracle.Generate(q.Seed, i); !ok {
					return fmt.Errorf("no design point at index %d", i)
				}
				return nil
			},
			func() error {
				if err := pl.Compile(pt.Params(), ssn.PlanFixed); err != nil {
					return err
				}
				_ = pl.VMax()
				return nil
			},
			func() error { var err error; ckt, tran, err = oracle.BuildDeck(pt); return err },
			func() error { var err error; eng, err = spice.New(ckt, spice.Options{}); return err },
		}
		for k, name := range []string{"oracle.generate", "ssn.plan.compile", "oracle.build_deck", "spice.tran.compile"} {
			if err := t.do(req, root, name, 1, steps[k]); err != nil {
				return err
			}
		}
		start := time.Now()
		set, err := eng.Transient(tran)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("spice.tran: %w", err)
		}
		w := set.Get("v(" + driver.BounceNode + ")")
		if w == nil {
			return fmt.Errorf("spice.tran: no v(%s)", driver.BounceNode)
		}
		t.record(req, root, "spice.tran", start, end, w.Len())
		t.count("spice.tran.steps", float64(w.Len()))
	}
	return nil
}

// probeOracle times the first replayed chunk point by point with
// oracle.Check, serially, and then as one oracle.Run at nproc workers.
func probeOracle(t *tracer, _ *evaluator, _, reqs []request, nproc int) error {
	if len(reqs) == 0 {
		return nil
	}
	q := reqs[0].spec.(oracleQuery)
	for i := 0; i < q.Points; i++ {
		pt, ok := oracle.Generate(q.Seed, i)
		if !ok {
			return fmt.Errorf("no design point at index %d", i)
		}
		err := t.do("oracle/probe", 0, "oracle.check", 1, func() error {
			if res := oracle.Check(pt, spice.Options{}); res.Err != nil || !res.Pass {
				return fmt.Errorf("oracle check %d: %v", i, res)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return withProcs(nproc, func() error {
		return t.do("oracle/probe", 0, "oracle.run", q.Points, func() error {
			rep, err := oracle.Run(context.Background(), oracle.Config{Points: q.Points, Seed: q.Seed, Workers: nproc})
			if err == nil && !rep.OK() {
				err = fmt.Errorf("campaign not OK: %v", rep)
			}
			return err
		})
	})
}
