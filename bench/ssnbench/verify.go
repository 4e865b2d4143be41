package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"ssnkit/internal/colwire"
	"ssnkit/internal/device"
	"ssnkit/internal/oracle"
	"ssnkit/internal/pdn"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/serve"
	"ssnkit/internal/spice"
	"ssnkit/internal/ssn"
	"ssnkit/internal/sweep"
)

// digest folds the bit patterns of checked values FNV-1a style, a 64-bit
// word at a time, so two replies agree only if every checked float64 is
// bit-identical. Multiplying by an odd prime is a bijection, so a single
// flipped bit always changes the digest.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) u(v uint64) { *d = (*d ^ digest(v)) * 1099511628211 }

func (d *digest) f(x float64) { d.u(math.Float64bits(x)) }
func (d *digest) i(x int)     { d.u(uint64(x)) }

// evaluator computes expected replies in process through the same public
// functions the server calls. workers matches the child's worker count;
// results do not depend on it, but the layer timings do.
type evaluator struct {
	cache   *serve.ExtractCache
	workers int
}

func newEvaluator(workers int) *evaluator {
	return &evaluator{cache: serve.NewExtractCache(64, nil), workers: workers}
}

// resolve turns a generated item into model parameters the way the server
// does for items that name a process corner and a package class.
func (ev *evaluator) resolve(it serve.EvalItem) (ssn.Params, error) {
	corner, err := device.CornerByName(it.Corner)
	if err != nil {
		return ssn.Params{}, err
	}
	spec := device.ExtractSpec{Process: it.Process, Corner: corner, Rail: it.Rail, Size: it.Size}
	dev, _, err := ev.cache.Get(spec)
	if err != nil {
		return ssn.Params{}, err
	}
	vdd, err := spec.Vdd()
	if err != nil {
		return ssn.Params{}, err
	}
	pkg, err := pkgmodel.ByName(it.Package)
	if err != nil {
		return ssn.Params{}, err
	}
	gnd := pkg.Ground(it.Pads)
	p := ssn.Params{N: it.N, Dev: dev, Vdd: vdd, L: gnd.L, C: gnd.C, Slope: vdd / it.RiseTime}
	return p, p.Validate()
}

func expectMaxSSN(ev *evaluator, rq request) (reply, error) {
	d := newDigest()
	var pl ssn.Plan
	items := rq.spec.([]serve.EvalItem)
	for _, it := range items {
		p, err := ev.resolve(it)
		if err != nil {
			return reply{}, err
		}
		if err := pl.Compile(p, ssn.PlanFixed); err != nil {
			return reply{}, err
		}
		d.f(pl.VMax())
		d.i(int(pl.Case()))
	}
	return reply{digest: uint64(d), ops: 1}, nil
}

func checkMaxSSN(body []byte) (reply, error) {
	var resp struct {
		Count   int `json:"count"`
		Results []struct {
			VMax     float64         `json:"vmax"`
			CaseCode int             `json:"case_code"`
			Error    json.RawMessage `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return reply{}, fmt.Errorf("maxssn reply: %w", err)
	}
	if resp.Count != len(resp.Results) {
		return reply{}, fmt.Errorf("maxssn reply: count %d for %d results", resp.Count, len(resp.Results))
	}
	d := newDigest()
	for i, r := range resp.Results {
		if r.Error != nil {
			return reply{}, fmt.Errorf("maxssn item %d: %s", i, r.Error)
		}
		d.f(r.VMax)
		d.i(r.CaseCode)
	}
	return reply{digest: uint64(d), ops: 1}, nil
}

// sweepGrid builds the engine inputs of a generated sweep request.
func (ev *evaluator) sweepGrid(body sweepBody) (sweep.Grid, error) {
	p, err := ev.resolve(body.Params)
	if err != nil {
		return sweep.Grid{}, err
	}
	g := sweep.Grid{Base: p}
	for _, ax := range body.Axes {
		g.Axes = append(g.Axes, sweep.Axis{Name: ax.Axis, From: ax.From, To: ax.To, Points: ax.Points, Log: ax.Log})
	}
	return g, nil
}

func expectSweep(ev *evaluator, rq request) (reply, error) {
	g, err := ev.sweepGrid(rq.spec.(sweepBody))
	if err != nil {
		return reply{}, err
	}
	d := newDigest()
	_, err = sweep.Run(context.Background(), g, sweep.Config{Workers: ev.workers}, func(pt sweep.Point) error {
		if pt.Err != nil {
			return pt.Err
		}
		d.f(pt.VMax)
		d.i(int(pt.Case))
		return nil
	})
	return reply{digest: uint64(d), ops: 1}, err
}

// ndjsonKey is the pattern that precedes a field's value in a record.
func ndjsonKey(key string) []byte { return []byte(`"` + key + `":`) }

// ndjsonField returns the raw value after key in one NDJSON record, up to
// the next ',' or '}' (the scalar fields the verifiers read), and the rest
// of the record after it.
func ndjsonField(line, key []byte) (raw, rest []byte, ok bool) {
	i := bytes.Index(line, key)
	if i < 0 {
		return nil, line, false
	}
	rest = line[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return nil, line, false
	}
	return rest[:j], rest[j:], true
}

// ndjsonRecords walks the point records of an NDJSON stream and checks
// the terminal {"done":true,...} summary: a stream without it, or with an
// error record anywhere, fails.
func ndjsonRecords(body []byte, each func(line []byte) error) error {
	done, errKey := []byte(`{"done":true`), []byte(`"error":`)
	for len(body) > 0 {
		n := bytes.IndexByte(body, '\n')
		if n < 0 {
			n = len(body)
		}
		line := body[:n]
		body = body[min(n+1, len(body)):]
		if bytes.HasPrefix(line, done) {
			if len(body) != 0 {
				return errors.New("records after the terminal record")
			}
			return nil
		}
		if bytes.Contains(line, errKey) {
			return fmt.Errorf("error record: %s", line)
		}
		if err := each(line); err != nil {
			return err
		}
	}
	return errors.New("stream without its terminal record")
}

func parseFloatField(line, key []byte) (float64, []byte, error) {
	raw, rest, ok := ndjsonField(line, key)
	if !ok {
		return 0, rest, fmt.Errorf("record without %s: %s", key, line)
	}
	v, err := strconv.ParseFloat(string(raw), 64)
	return v, rest, err
}

func checkSweepNDJSON(body []byte) (reply, error) {
	vmaxKey, codeKey := ndjsonKey("vmax"), ndjsonKey("case_code")
	d := newDigest()
	err := ndjsonRecords(body, func(line []byte) error {
		// vmax is omitted when zero; a valid point is never zero, but the
		// digest must not depend on that.
		vmax, rest, err := parseFloatField(line, vmaxKey)
		if err != nil {
			vmax, rest = 0, line
		}
		code, _, err := parseFloatField(rest, codeKey)
		if err != nil {
			return err
		}
		d.f(vmax)
		d.i(int(code))
		return nil
	})
	return reply{digest: uint64(d), ops: 1}, err
}

func checkSweepSSNC(body []byte) (reply, error) {
	d := newDigest()
	for len(body) > 0 {
		blk, n, err := colwire.Decode(body)
		if err != nil {
			return reply{}, fmt.Errorf("ssnc block: %w", err)
		}
		body = body[n:]
		if blk.Rows() == 0 {
			if len(body) != 0 || !bytes.HasPrefix(blk.Meta, []byte(`{"done":true`)) {
				return reply{}, fmt.Errorf("ssnc terminal block: %s", blk.Meta)
			}
			return reply{digest: uint64(d), ops: 1}, nil
		}
		if len(blk.Meta) > 0 {
			return reply{}, fmt.Errorf("ssnc row block with meta: %s", blk.Meta)
		}
		vmax, codes := blk.Column("vmax"), blk.Column("case_code")
		if len(vmax) != blk.Rows() || len(codes) != blk.Rows() {
			return reply{}, errors.New("ssnc block without vmax/case_code columns")
		}
		for i := range vmax {
			d.f(vmax[i])
			d.i(int(codes[i]))
		}
	}
	return reply{}, errors.New("stream without its terminal record")
}

// pdnGrid builds the mesh a generated /v1/impedance request names.
func pdnGrid(body impedanceBody) (*pkgmodel.PDNGrid, []float64, error) {
	pkg, err := pkgmodel.ByName(body.Package)
	if err != nil {
		return nil, nil, err
	}
	freqs, err := spice.FreqGrid(body.From, body.To, body.Points, true)
	if err != nil {
		return nil, nil, err
	}
	return pkgmodel.DefaultPDN(pkg, body.Rows, body.Cols, body.Pads), freqs, nil
}

func expectImpedance(ev *evaluator, rq request) (reply, error) {
	grid, freqs, err := pdnGrid(rq.spec.(impedanceBody))
	if err != nil {
		return reply{}, err
	}
	sw, err := pdn.NewSweeper(grid, pdn.Config{Workers: ev.workers})
	if err != nil {
		return reply{}, err
	}
	prof, err := sw.RunProfile(context.Background(), freqs)
	if err != nil {
		return reply{}, err
	}
	d := newDigest()
	for _, p := range prof.Points {
		d.f(p.AbsZ)
	}
	return reply{digest: uint64(d), ops: 1}, nil
}

func checkImpedance(body []byte) (reply, error) {
	key := ndjsonKey("z_mag")
	d := newDigest()
	err := ndjsonRecords(body, func(line []byte) error {
		z, _, err := parseFloatField(line, key)
		d.f(z)
		return err
	})
	return reply{digest: uint64(d), ops: 1}, err
}

// optimizeDigest folds the whole placement sequence, so a reply matches
// only if every step, gradient and peak is bit-identical.
func optimizeDigest(before, after float64, ps []pdn.Placement) uint64 {
	d := newDigest()
	d.f(before)
	d.f(after)
	for _, p := range ps {
		d.i(p.Site)
		d.i(p.Node)
		d.f(p.Grad)
		d.f(p.PeakFreq)
		d.f(p.PeakBefore)
		d.f(p.PeakAfter)
	}
	return uint64(d)
}

func expectOptimize(ev *evaluator, rq request) (reply, error) {
	body := rq.spec.(impedanceBody)
	grid, freqs, err := pdnGrid(body)
	if err != nil {
		return reply{}, err
	}
	res, err := pdn.OptimizeDecaps(context.Background(), pdn.OptimizeSpec{
		Grid: grid, Freqs: freqs, DecapC: body.DecapC, DecapESR: body.DecapESR,
		MaxDecaps: body.MaxDecaps, Config: pdn.Config{Workers: ev.workers},
	})
	if err != nil {
		return reply{}, err
	}
	return reply{digest: optimizeDigest(res.PeakBefore, res.PeakAfter, res.Placements), ops: 1}, nil
}

func checkOptimize(body []byte) (reply, error) {
	var resp struct {
		PeakBefore float64         `json:"peak_before"`
		PeakAfter  float64         `json:"peak_after"`
		Placements []pdn.Placement `json:"placements"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return reply{}, fmt.Errorf("optimize reply: %w", err)
	}
	// No placement is a valid answer when no open site lowers the peak; then
	// the peak must be unchanged.
	improved := resp.PeakAfter < resp.PeakBefore
	if len(resp.Placements) > 0 != improved || !improved && resp.PeakAfter != resp.PeakBefore {
		return reply{}, fmt.Errorf("optimize reply: %d placements, peak %g -> %g",
			len(resp.Placements), resp.PeakBefore, resp.PeakAfter)
	}
	return reply{digest: optimizeDigest(resp.PeakBefore, resp.PeakAfter, resp.Placements), ops: 1}, nil
}

// oracleQuery is the oracle child's request: one seeded campaign chunk.
type oracleQuery struct {
	Seed   int64 `json:"seed"`
	Points int   `json:"points"`
}

// oracleReply is the oracle child's answer: the campaign report summary
// and the time oracle.Run took inside the child.
type oracleReply struct {
	Points     int                `json:"points"`
	Passed     int                `json:"passed"`
	Failed     int                `json:"failed"`
	Errored    int                `json:"errored"`
	CaseCounts map[string]int     `json:"case_counts"`
	WorstRel   map[string]float64 `json:"worst_rel"`
	RunNS      int64              `json:"run_ns"`
}

func summarizeReport(rep *oracle.Report) oracleReply {
	return oracleReply{Points: rep.Points, Passed: rep.Passed, Failed: rep.Failed,
		Errored: rep.Errored, CaseCounts: rep.CaseCounts, WorstRel: rep.WorstRel}
}

// digest folds everything but the run time, in sorted case order.
func (r oracleReply) digest() uint64 {
	d := newDigest()
	d.i(r.Points)
	d.i(r.Passed)
	d.i(r.Failed)
	d.i(r.Errored)
	names := make([]string, 0, len(r.CaseCounts))
	for name := range r.CaseCounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, c := range []byte(name) {
			d.i(int(c))
		}
		d.i(r.CaseCounts[name])
		d.f(r.WorstRel[name])
	}
	return uint64(d)
}

func expectOracle(ev *evaluator, rq request) (reply, error) {
	q := rq.spec.(oracleQuery)
	rep, err := oracle.Run(context.Background(), oracle.Config{Points: q.Points, Seed: q.Seed, Workers: ev.workers})
	if err != nil {
		return reply{}, err
	}
	return reply{digest: summarizeReport(rep).digest(), ops: q.Points}, nil
}

func checkOracle(body []byte) (reply, error) {
	var r oracleReply
	if err := json.Unmarshal(body, &r); err != nil {
		return reply{}, fmt.Errorf("oracle reply: %w", err)
	}
	if r.Failed+r.Errored != 0 || r.Passed != r.Points {
		return reply{}, fmt.Errorf("oracle reply: %d points, %d failed, %d errored", r.Points, r.Failed, r.Errored)
	}
	return reply{digest: r.digest(), ops: r.Points, runNS: r.RunNS}, nil
}
