package spice

import (
	"fmt"
	"math"
	"sort"

	"ssnkit/internal/circuit"
	"ssnkit/internal/waveform"
)

// OperatingPoint solves the DC operating point at time t (source waveforms
// evaluated at t; capacitors open, inductors shorted). On plain Newton
// failure it falls back to gmin stepping, then source stepping.
func (e *Engine) OperatingPoint(t float64) error {
	if err := e.solve(t, 0, modeDC); err == nil {
		return nil
	}
	// Gmin stepping: start heavily shunted (easy problem), tighten toward
	// the real Gmin, reusing each solution as the next starting point.
	for i := range e.x {
		e.x[i] = 0
	}
	ok := true
	for g := 1e-2; g >= e.opts.Gmin; g /= 10 {
		e.gshunt = g
		if err := e.solve(t, 0, modeDC); err != nil {
			ok = false
			break
		}
	}
	e.gshunt = e.opts.Gmin
	if ok {
		if err := e.solve(t, 0, modeDC); err == nil {
			return nil
		}
	}
	// Source stepping: ramp all sources from 0 to full value.
	for i := range e.x {
		e.x[i] = 0
	}
	for _, k := range []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0} {
		e.srcScale = k
		if err := e.solve(t, 0, modeDC); err != nil {
			e.srcScale = 1
			return fmt.Errorf("spice: operating point: %w (source stepping at %g%%)", err, k*100)
		}
	}
	e.srcScale = 1
	return nil
}

// DCSweepResult holds one waveform per output, indexed by the swept value.
type DCSweepResult struct {
	SweptValues []float64
	Outputs     map[string][]float64 // "v(node)" / "i(elem)" -> values
}

// DCSweep sweeps the DC value of the named voltage source and solves the
// operating point at each step, with solution continuation between points.
func (e *Engine) DCSweep(spec circuit.DCSpec) (*DCSweepResult, error) {
	var target *vsrcStamp
	var knownTarget *knownNode
	for _, v := range e.vsrc {
		if equalFold(v.name, spec.Source) {
			target = v
			break
		}
	}
	if target == nil {
		for _, k := range e.knowns {
			if equalFold(k.name, spec.Source) {
				knownTarget = k
				break
			}
		}
	}
	if target == nil && knownTarget == nil {
		return nil, fmt.Errorf("spice: .DC source %q not found", spec.Source)
	}
	if spec.Step <= 0 || spec.To < spec.From {
		return nil, fmt.Errorf("spice: bad .DC range [%g:%g:%g]", spec.From, spec.Step, spec.To)
	}
	setWave := func(w circuit.Source) {
		if target != nil {
			target.wave = w
		} else {
			knownTarget.wave = w
		}
	}
	var origWave circuit.Source
	if target != nil {
		origWave = target.wave
	} else {
		origWave = knownTarget.wave
	}
	defer func() { setWave(origWave) }()

	res := &DCSweepResult{Outputs: map[string][]float64{}}
	n := int(math.Floor((spec.To-spec.From)/spec.Step+1e-9)) + 1
	for k := 0; k < n; k++ {
		val := spec.From + float64(k)*spec.Step
		setWave(circuit.DC(val))
		if err := e.OperatingPoint(0); err != nil {
			return nil, fmt.Errorf("spice: .DC at %s=%g: %w", spec.Source, val, err)
		}
		res.SweptValues = append(res.SweptValues, val)
		e.recordInto(res.Outputs)
	}
	return res, nil
}

func (e *Engine) recordInto(out map[string][]float64) {
	names := e.ckt.NodeNames()
	for idx := 1; idx < len(names); idx++ {
		key := "v(" + names[idx] + ")"
		out[key] = append(out[key], e.nodeV(e.x, idx))
	}
	for _, l := range e.inds {
		key := "i(" + lower(l.name) + ")"
		out[key] = append(out[key], e.x[l.br])
	}
	for _, v := range e.vsrc {
		key := "i(" + lower(v.name) + ")"
		out[key] = append(out[key], e.x[v.br])
	}
	for _, k := range e.knowns {
		key := "i(" + lower(k.name) + ")"
		out[key] = append(out[key], 0)
	}
}

// Transient runs a transient analysis and returns one waveform per node
// voltage and per inductor/source branch current, named "v(node)" and
// "i(elem)".
func (e *Engine) Transient(spec circuit.TranSpec) (*waveform.Set, error) {
	rec := fullRecorder{arena: sampleArena{per: e.nUnknown}}
	if err := e.transient(spec, &rec); err != nil {
		return nil, err
	}
	return e.wavesFrom(rec.times, rec.samples)
}

// TransientPeak runs the same transient analysis as Transient but keeps
// only the running maximum of one node voltage. It returns the time and
// value of the first sample at which v(node) peaks and the sample count
// (the accepted steps plus the initial point): bit for bit what
// Transient(spec).Get("v(node)").Max() and Len() report, without recording
// a waveform, so its allocations do not grow with the step count.
func (e *Engine) TransientPeak(spec circuit.TranSpec, node string) (tmax, vmax float64, samples int, err error) {
	idx := e.ckt.LookupNode(node)
	switch {
	case idx < 0:
		return 0, 0, 0, fmt.Errorf("spice: unknown node %q", node)
	case idx == 0:
		return 0, 0, 0, fmt.Errorf("spice: node %q is ground and has no waveform", node)
	}
	rec := peakRecorder{slot: e.slot[idx], vmax: math.Inf(-1)}
	if rec.slot < 0 {
		rec.known = e.knowns[-2-rec.slot]
	}
	if err := e.transient(spec, &rec); err != nil {
		return 0, 0, 0, err
	}
	return rec.tmax, rec.vmax, rec.n, nil
}

// tranRecorder receives the samples of a transient run: grow once with an
// estimate of the sample count, then record for the initial point and for
// every accepted step, in increasing time. x is the engine's live solution
// vector, so a recorder that keeps it must copy it.
type tranRecorder interface {
	grow(est int)
	record(t float64, x []float64)
}

// fullRecorder keeps every sample for wavesFrom. The result slices are
// presized from the step grid and the per-step snapshots are carved out of
// a chunked arena, so recording a step does not allocate.
type fullRecorder struct {
	arena   sampleArena
	times   []float64
	samples [][]float64
}

func (r *fullRecorder) grow(est int) {
	r.times = make([]float64, 0, est)
	r.samples = make([][]float64, 0, est)
}

func (r *fullRecorder) record(t float64, x []float64) {
	r.times = append(r.times, t)
	r.samples = append(r.samples, r.arena.take(x))
}

// peakRecorder keeps one node voltage's running maximum and the sample
// count, with Waveform.Max's first-maximum rule.
type peakRecorder struct {
	slot       int        // the node's unknown slot, when known is nil
	known      *knownNode // the source pinning the node, if any
	tmax, vmax float64
	n          int
}

func (r *peakRecorder) grow(int) {}

func (r *peakRecorder) record(t float64, x []float64) {
	var v float64
	if r.known != nil {
		v = r.known.sign * r.known.wave.At(t) // as wavesFrom reports a pinned node
	} else {
		v = x[r.slot]
	}
	if v > r.vmax {
		r.tmax, r.vmax = t, v
	}
	r.n++
}

// transient is the one stepping loop behind Transient and TransientPeak:
// it sets up the initial state, integrates from spec.Start to spec.Stop
// and hands each accepted sample to rec.
func (e *Engine) transient(spec circuit.TranSpec, rec tranRecorder) error {
	if !(spec.Step > 0) || !(spec.Stop > spec.Start) {
		return fmt.Errorf("spice: bad .TRAN spec step=%g stop=%g start=%g", spec.Step, spec.Stop, spec.Start)
	}
	// Initial state.
	if spec.UseIC {
		for i := range e.x {
			e.x[i] = 0
		}
		for _, c := range e.caps {
			c.vOld, c.iOld = c.ic, 0
			// Seed node voltages implied by grounded-capacitor ICs so the
			// consistency solve below starts close to the answer.
			if c.n2 == 0 && c.n1 != 0 {
				if s := e.slot[c.n1]; s >= 0 {
					e.x[s] = c.ic
				}
			} else if c.n1 == 0 && c.n2 != 0 {
				if s := e.slot[c.n2]; s >= 0 {
					e.x[s] = -c.ic
				}
			}
		}
		for _, l := range e.inds {
			l.iOld, l.vOld = l.ic, 0
			e.x[l.br] = l.ic
		}
		for node, v := range e.nodeICs {
			e.x[e.slot[node]] = v // SetNodeICs only admits unknown nodes
		}
		// Consistency solve: a backward-Euler micro-step pins capacitor
		// voltages and inductor currents to their ICs while letting the
		// resistive part of the circuit settle, so the first recorded
		// sample honors both the ICs and the source values at t=start.
		// The micro-step must stay small enough to pin the reactive state
		// but large enough that the companion conductances (C/h, L/h) do
		// not destroy the conditioning of the MNA matrix.
		e.pinICs = true
		err := e.solve(spec.Start, spec.Step*1e-3, modeBE)
		e.pinICs = false
		if err != nil {
			return fmt.Errorf("spice: UIC consistency solve: %w", err)
		}
		// Re-sync the reactive history with the consistent solution so
		// element ICs and .IC node pins agree at the first real step.
		for _, c := range e.caps {
			c.vOld = e.nodeV(e.x, c.n1) - e.nodeV(e.x, c.n2)
			c.iOld = 0
		}
		for _, l := range e.inds {
			l.iOld = e.x[l.br]
			l.vOld = e.nodeV(e.x, l.n1) - e.nodeV(e.x, l.n2)
		}
	} else {
		if err := e.OperatingPoint(spec.Start); err != nil {
			return err
		}
		for _, c := range e.caps {
			c.vOld = e.nodeV(e.x, c.n1) - e.nodeV(e.x, c.n2)
			c.iOld = 0
		}
		for _, l := range e.inds {
			l.iOld = e.x[l.br]
			l.vOld = 0
		}
	}

	// Seed transmission-line histories with the initial port state.
	e.updateTLines(spec.Start)

	// Breakpoints from all sources, restricted to the run window.
	bps := e.breakpoints(spec.Start, spec.Stop)

	// Estimate the sample count from the step grid, plus breakpoints and
	// slack for halvings, so a recorder can presize.
	est := int((spec.Stop-spec.Start)/spec.Step) + len(bps) + 8
	if est < 16 {
		est = 16
	}
	if est > 1<<20 {
		est = 1 << 20
	}
	rec.grow(est)
	rec.record(spec.Start, e.x)

	t := spec.Start
	h := spec.Step
	useBE := true // first step and every post-breakpoint step use BE
	xPrev := make([]float64, e.nUnknown)
	var lte *lteHistory
	if e.opts.Adaptive {
		lte = newLTEHistory(e.nUnknown, t, e.x)
	}
	rejects := 0 // consecutive LTE rejections of the current step

	// Transmission lines bound the step to half the shortest delay so the
	// delayed-wave interpolation stays accurate.
	if td := e.minTLineDelay(); td > 0 {
		h = math.Min(h, td/2)
		spec.Step = math.Min(spec.Step, td/2)
	}

	// The 1e-12 relative guard (matching nearly()) ends the run when the
	// remaining gap is accumulated round-off: integrating a sub-ULP-scale
	// final step would put companion conductances near 1/eps and record one
	// ill-conditioned garbage sample (or a duplicated time point under
	// adaptive control).
	for t < spec.Stop-1e-12*spec.Stop {
		// Target the next time point, clipped to breakpoints and stop time.
		hEff := math.Min(h, spec.Stop-t)
		if bp, ok := nextBreak(bps, t); ok && t+hEff > bp {
			hEff = bp - t
		}
		if hEff <= 0 {
			// Already at a breakpoint boundary; skip past it.
			bps = dropBreak(bps, t)
			continue
		}

		mode := modeTR
		if useBE {
			mode = modeBE
		}

		// grow bounds the next step relative to this one under adaptive
		// control; zero keeps the fixed grid's step policy.
		grow := 0.0
		restart := false
		copy(xPrev, e.x)
		if stepErr := e.solve(t+hEff, hEff, mode); stepErr != nil {
			// Retry with halved steps.
			recovered := false
			hTry := hEff / 2
			for k := 0; k < e.opts.MaxHalvings; k++ {
				copy(e.x, xPrev)
				if err2 := e.solve(t+hTry, hTry, modeBE); err2 == nil {
					hEff = hTry
					recovered = true
					break
				}
				hTry /= 2
			}
			if !recovered {
				return fmt.Errorf("spice: transient stalled at t=%g: %w", t, stepErr)
			}
		} else if lte != nil {
			// BE steps come only right after a history restart, so an
			// estimate is always of a trapezoidal step.
			grow = e.opts.MaxStepGrowth
			if est := lte.estimate(t+hEff, e.x); est >= 0 {
				ratio := 0.9 * math.Cbrt(e.opts.LTETol/est)
				switch {
				case est <= e.opts.LTETol:
					grow = math.Min(grow, ratio)
				case rejects < e.opts.MaxHalvings:
					// Reject: only e.x has moved, since the reactive and
					// transmission-line histories advance in updateStates.
					rejects++
					e.rejects++
					copy(e.x, xPrev)
					h = hEff * math.Max(0.25, ratio)
					continue
				default:
					// The error does not shrink with the step: treat the
					// sample as a discontinuity and estimate afresh from it.
					restart = true
				}
			}
		}
		rejects = 0
		e.updateStates(t+hEff, hEff, useBE)
		// A step below the ULP of t would record the same time again, and
		// the loop would never reach Stop.
		if t+hEff == t {
			return fmt.Errorf("spice: transient step h=%g does not advance t=%g", hEff, t)
		}
		if lte != nil && crossed(bps, t, t+hEff) {
			restart = true
		}
		t += hEff
		rec.record(t, e.x)

		// Breakpoint handling: if we landed exactly on one, consume it and
		// restart integration with BE.
		if bp, ok := nextBreak(bps, t-1e-18*math.Max(1, math.Abs(t))); ok && nearly(bp, t) {
			bps = dropBreak(bps, bp)
			useBE = true
			restart = true
		} else {
			useBE = false
		}
		if lte != nil {
			lte.push(t, e.x, restart)
		}
		// Step control: under LTE control the estimate sets the next step;
		// otherwise creep back toward the base step after halvings.
		switch {
		case grow > 0:
			h = math.Min(spec.Step, hEff*grow)
		case hEff < h:
			h = math.Min(spec.Step, hEff*e.opts.MaxStepGrowth)
		default:
			h = spec.Step
		}
	}

	return nil
}

// lteHistory holds the accepted samples since the last breakpoint, up to
// the three the trapezoidal LTE estimate needs besides the new one.
type lteHistory struct {
	t [3]float64
	x [3][]float64 // oldest first
	n int          // samples held
}

func newLTEHistory(n int, t float64, x []float64) *lteHistory {
	l := &lteHistory{}
	for i := range l.x {
		l.x[i] = make([]float64, n)
	}
	l.push(t, x, true)
	return l
}

// push appends an accepted sample; restart first drops the older ones.
func (l *lteHistory) push(t float64, x []float64, restart bool) {
	if restart {
		l.n = 0
	}
	if l.n == len(l.x) {
		l.t[0], l.t[1] = l.t[1], l.t[2]
		l.x[0], l.x[1], l.x[2] = l.x[1], l.x[2], l.x[0]
		l.n--
	}
	l.t[l.n] = t
	copy(l.x[l.n], x)
	l.n++
}

// estimate returns the trapezoidal rule's local truncation error for the
// step to (t3, x3): h³/12 times the third derivative, taken as 6 times the
// third divided difference over the three held samples and the new one,
// for the largest component relative to max(|x|, 1). It returns -1 while
// fewer than three samples are held.
func (l *lteHistory) estimate(t3 float64, x3 []float64) float64 {
	if l.n < len(l.x) {
		return -1
	}
	t0, t1, t2 := l.t[0], l.t[1], l.t[2]
	x0, x1, x2 := l.x[0], l.x[1], l.x[2]
	h := t3 - t2
	i01, i12, i23 := 1/(t1-t0), 1/(t2-t1), 1/h
	i02, i13, i03 := 1/(t2-t0), 1/(t3-t1), 1/(t3-t0)
	k := h * h * h / 2
	est := 0.0
	for i, v := range x3 {
		d01, d12, d23 := (x1[i]-x0[i])*i01, (x2[i]-x1[i])*i12, (v-x2[i])*i23
		d3 := ((d23-d12)*i13 - (d12-d01)*i02) * i03
		if r := math.Abs(k*d3) / math.Max(math.Abs(v), 1); r > est {
			est = r
		}
	}
	return est
}

// updateStates advances the reactive element histories after an accepted
// step of size h ending at time tNew.
func (e *Engine) updateStates(tNew, h float64, wasBE bool) {
	hinv := 1 / h // one division shared by every capacitor update
	for _, c := range e.caps {
		v := e.nodeV(e.x, c.n1) - e.nodeV(e.x, c.n2)
		var i float64
		if wasBE {
			i = c.c * hinv * (v - c.vOld)
		} else {
			i = 2*c.c*hinv*(v-c.vOld) - c.iOld
		}
		c.vOld, c.iOld = v, i
	}
	for _, l := range e.inds {
		l.iOld = e.x[l.br]
		l.vOld = e.nodeV(e.x, l.n1) - e.nodeV(e.x, l.n2)
	}
	e.updateTLines(tNew)
}

// sampleArena hands out per-step solution snapshots carved from chunked
// backing arrays: one allocation covers many steps, and earlier snapshots
// stay valid when a fresh chunk is started.
type sampleArena struct {
	per   int // floats per snapshot
	chunk []float64
}

// arenaChunkSamples is how many snapshots each backing chunk holds.
const arenaChunkSamples = 256

func (a *sampleArena) take(x []float64) []float64 {
	if len(a.chunk)+a.per > cap(a.chunk) {
		a.chunk = make([]float64, 0, a.per*arenaChunkSamples)
	}
	s := a.chunk[len(a.chunk) : len(a.chunk)+a.per]
	a.chunk = a.chunk[:len(a.chunk)+a.per]
	copy(s, x)
	return s
}

func (e *Engine) wavesFrom(times []float64, samples [][]float64) (*waveform.Set, error) {
	set := &waveform.Set{}
	col := func(idx int) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = s[idx]
		}
		return out
	}
	names := e.ckt.NodeNames()
	for idx := 1; idx < len(names); idx++ {
		var data []float64
		if s := e.slot[idx]; s >= 0 {
			data = col(s)
		} else {
			// Source-pinned node: its voltage is the source waveform itself.
			k := e.knowns[-2-s]
			data = make([]float64, len(times))
			for i, t := range times {
				data[i] = k.sign * k.wave.At(t)
			}
		}
		w, err := waveform.New("v("+names[idx]+")", times, data)
		if err != nil {
			return nil, err
		}
		set.Add(w)
	}
	for _, l := range e.inds {
		w, err := waveform.New("i("+lower(l.name)+")", times, col(l.br))
		if err != nil {
			return nil, err
		}
		set.Add(w)
	}
	for _, v := range e.vsrc {
		w, err := waveform.New("i("+lower(v.name)+")", times, col(v.br))
		if err != nil {
			return nil, err
		}
		set.Add(w)
	}
	for _, k := range e.knowns {
		w, err := waveform.New("i("+lower(k.name)+")", times, make([]float64, len(times)))
		if err != nil {
			return nil, err
		}
		set.Add(w)
	}
	return set, nil
}

func (e *Engine) breakpoints(start, stop float64) []float64 {
	var bps []float64
	add := func(src circuit.Source) {
		for _, b := range src.Breakpoints() {
			if b > start && b < stop {
				bps = append(bps, b)
			}
		}
	}
	for _, v := range e.vsrc {
		add(v.wave)
	}
	for _, k := range e.knowns {
		add(k.wave)
	}
	for _, s := range e.isrc {
		add(s.wave)
	}
	sort.Float64s(bps)
	return dedupeSorted(bps)
}

func nextBreak(bps []float64, t float64) (float64, bool) {
	for _, b := range bps {
		if b > t && !nearly(b, t) {
			return b, true
		}
	}
	return 0, false
}

func dropBreak(bps []float64, upTo float64) []float64 {
	out := bps[:0]
	for _, b := range bps {
		if b > upTo && !nearly(b, upTo) {
			out = append(out, b)
		}
	}
	return out
}

// crossed reports whether the step from t0 to t1 reached a breakpoint,
// allowing t1 to fall a rounding error short of it. Unlike the BE landing
// test it does not take a point within nearly() of a breakpoint as on it.
func crossed(bps []float64, t0, t1 float64) bool {
	for _, b := range bps {
		if b > t0 && b-t1 <= 1e-12*math.Abs(b) {
			return true
		}
	}
	return false
}

func nearly(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func equalFold(a, b string) bool { return lower(a) == lower(b) }

// Run executes all analyses requested by a parsed deck and returns the
// transient waveform set (nil if no .TRAN), the DC sweep result (nil if no
// .DC), and whether an operating point was computed.
func Run(deck *circuit.Deck, opts Options) (*waveform.Set, *DCSweepResult, error) {
	var tranSet *waveform.Set
	var dcRes *DCSweepResult
	if deck.OP || deck.Tran == nil && deck.DC == nil {
		eng, err := New(deck.Circuit, opts)
		if err != nil {
			return nil, nil, err
		}
		if err := eng.OperatingPoint(0); err != nil {
			return nil, nil, err
		}
	}
	if deck.DC != nil {
		eng, err := New(deck.Circuit, opts)
		if err != nil {
			return nil, nil, err
		}
		dcRes, err = eng.DCSweep(*deck.DC)
		if err != nil {
			return nil, nil, err
		}
	}
	if deck.Tran != nil {
		eng, err := New(deck.Circuit, opts)
		if err != nil {
			return nil, nil, err
		}
		if err := eng.SetNodeICs(deck.NodeICs); err != nil {
			return nil, nil, err
		}
		tranSet, err = eng.Transient(*deck.Tran)
		if err != nil {
			return nil, nil, err
		}
	}
	return tranSet, dcRes, nil
}
