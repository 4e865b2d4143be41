package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"ssnkit/internal/colwire"
	"ssnkit/internal/serve"
)

// Children a workload can run against.
const (
	childServe  = "serve"  // serve.New with the default serve.Config
	childOracle = "oracle" // the differential oracle behind a minimal HTTP face
)

// request is one generated operation: the exact body sent on the wire and
// the structured form the in-process evaluation reads.
type request struct {
	body []byte
	spec any
	// units is the number of sampled units in the request (batch items,
	// impedance sweeps) and hot how many of them came from the hot set.
	units, hot int
}

// workload is one traffic shape. Counts are fixed so a round does the same
// work on every commit; rate converts --seconds into a request count.
type workload struct {
	name  string
	child string
	path  string
	// accept is the Accept header; empty means the route's JSON default.
	accept string
	// rate is about the raw requests per second one caller achieved at the
	// commit that defined the benchmark, on its 2-vCPU host at that host's
	// usual speed (about 0.6 of reference speed, refloop.go). It only sizes
	// the fixed count of requests per round, rate * seconds / rounds. At
	// 10 s a run then holds whole cycles of the cycled inputs: 70 of the
	// 18 sweep axis pairs, 10 of the 25-request optimize suite and 15 of
	// the 64 oracle chunks. optimize sends more than its raw rate of 16,
	// so that every round sends the whole suite.
	rate float64
	// warmup requests per round, drawn from the same distribution on a
	// separate stream; replay is the request count the traced run replays
	// in process.
	warmup, replay int
	// newDraw builds the request sampler; hot-set state is drawn from r.
	newDraw func(r *rand.Rand) func(r *rand.Rand) request
	// expect computes the reply digest and op count in process.
	expect func(ev *evaluator, rq request) (reply, error)
	// check parses a reply body into its digest and op count.
	check func(body []byte) (reply, error)
}

// reply is what a verifier extracts from one response: a digest over every
// checked output value, the number of ops it answered, and, for the oracle
// child, the server-side run time it reports.
type reply struct {
	digest uint64
	ops    int
	runNS  int64
}

// workloads lists the workloads in BENCHMARK.json order; bench/README.md
// says why each exists.
var workloads = []*workload{
	{name: "maxssn", child: childServe, path: "/v1/maxssn",
		rate: 1200, warmup: 64, replay: 64,
		newDraw: newMaxSSNDraw, expect: expectMaxSSN, check: checkMaxSSN},
	{name: "sweep-ndjson", child: childServe, path: "/v1/sweep",
		rate: 126, warmup: 8, replay: 32,
		newDraw: newSweepDraw, expect: expectSweep, check: checkSweepNDJSON},
	{name: "sweep-ssnc", child: childServe, path: "/v1/sweep", accept: colwire.ContentType,
		rate: 1620, warmup: 8, replay: 32,
		newDraw: newSweepDraw, expect: expectSweep, check: checkSweepSSNC},
	{name: "impedance", child: childServe, path: "/v1/impedance",
		rate: 100, warmup: 16, replay: 16,
		newDraw: newImpedanceDraw, expect: expectImpedance, check: checkImpedance},
	{name: "optimize", child: childServe, path: "/v1/impedance",
		rate: 25, warmup: 4, replay: 8,
		newDraw: newOptimizeDraw, expect: expectOptimize, check: checkOptimize},
	{name: "oracle", child: childOracle, path: oraclePath,
		rate: 96, warmup: 4, replay: 4,
		newDraw: newOracleDraw, expect: expectOracle, check: checkOracle},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// Random streams of one seed: the hot sets, the warm-up requests and the
// measured requests each draw from their own PCG stream, so changing a
// warm-up count never shifts the measured sequence.
const (
	streamHot uint64 = iota
	streamWarmup
	streamMeasured
)

// sampler returns the request stream of one seed and stream id. Every
// stream gets its own sampler, so sampler state (the mesh-size and
// axis-pair cycles) never carries from the warm-up into the measured
// requests.
func (w *workload) sampler(seed, stream uint64) func() request {
	draw := w.newDraw(rand.New(rand.NewPCG(seed, streamHot)))
	r := rand.New(rand.NewPCG(seed, stream))
	return func() request { return draw(r) }
}

// take draws n requests from a stream.
func take(next func() request, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = next()
	}
	return reqs
}

// generate draws the first warmup and measured requests of a seed.
func (w *workload) generate(seed uint64, warmup, measured int) (warm, meas []request) {
	return take(w.sampler(seed, streamWarmup), warmup), take(w.sampler(seed, streamMeasured), measured)
}

var (
	processes = []string{"c018", "c025", "c035"}
	corners   = []string{"tt", "ss", "ff"}
	packages  = []string{"pga", "qfp", "bga", "cob"}
)

func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

// cycler deals the cells 0..n-1 of a cost-driving parameter in a fresh
// seeded order each cycle. Request cost varies many-fold across such
// cells (mesh size, sweep axis pair), so drawing them independently would
// let a seed's share of expensive cells, not the code, set the numbers;
// cycling gives every seed the same mix.
type cycler struct {
	n     int
	order []int
}

func (c *cycler) next(r *rand.Rand) int {
	if len(c.order) == 0 {
		c.order = r.Perm(c.n)
	}
	v := c.order[0]
	c.order = c.order[1:]
	return v
}

// mustJSON encodes a generated body; the body types cannot fail to encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// drawItem samples one /v1/maxssn point. The extraction specs span
// 3 processes x 3 corners x rail x size {1,2} = 36, fewer than the 64
// entries ExtractCache holds, so extraction is a steady-state hit and no
// workload here exercises ExtractCache eviction.
func drawItem(r *rand.Rand) serve.EvalItem {
	return serve.EvalItem{
		Process:     processes[r.IntN(len(processes))],
		Corner:      corners[r.IntN(len(corners))],
		Rail:        r.IntN(2) == 1,
		Size:        float64(1 + r.IntN(2)),
		N:           1 + r.IntN(256),
		Package:     packages[r.IntN(len(packages))],
		Pads:        1 + r.IntN(8),
		RiseTime:    logUniform(r, 0.2e-9, 5e-9),
		Sensitivity: r.IntN(8) == 0,
	}
}

// The hot share of maxssn items (one half) and the hot-set size are
// assumptions, not measured: no recorded caller traffic exists to set
// them. They fix how often PlanCache hits, so the workload cannot by
// itself decide whether PlanCache pays for itself.
const (
	maxssnBatch   = 64
	maxssnHotSize = 1024 // fits PlanCache's 4096 entries
)

type maxssnBody struct {
	Items []serve.EvalItem `json:"items"`
}

func newMaxSSNDraw(hr *rand.Rand) func(*rand.Rand) request {
	hot := make([]serve.EvalItem, maxssnHotSize)
	for i := range hot {
		hot[i] = drawItem(hr)
	}
	return func(r *rand.Rand) request {
		rq := request{units: maxssnBatch}
		items := make([]serve.EvalItem, maxssnBatch)
		for i := range items {
			if r.IntN(2) == 0 {
				items[i] = hot[r.IntN(len(hot))]
				rq.hot++
			} else {
				items[i] = drawItem(r)
			}
		}
		rq.body = mustJSON(maxssnBody{Items: items})
		rq.spec = items
		return rq
	}
}

// sweepSide is the grid edge: every sweep is sweepSide x sweepSide points.
const sweepSide = 64

type sweepBody struct {
	Params serve.EvalItem    `json:"params"`
	Axes   []serve.SweepAxis `json:"axes"`
}

// drawAxis samples a range for one axis, inside the model's domain so no
// point of the grid fails validation.
func drawAxis(r *rand.Rand, name string) serve.SweepAxis {
	ax := serve.SweepAxis{Axis: name, Points: sweepSide}
	switch name {
	case "n":
		ax.From, ax.To = float64(1+r.IntN(16)), float64(64+r.IntN(193))
	case "l":
		ax.From, ax.To, ax.Log = logUniform(r, 0.1e-9, 1e-9), logUniform(r, 2e-9, 20e-9), true
	case "c":
		ax.From, ax.To, ax.Log = logUniform(r, 0.05e-12, 1e-12), logUniform(r, 5e-12, 50e-12), true
	case "slope":
		ax.From, ax.To = uniform(r, 0.3e9, 1e9), uniform(r, 3e9, 15e9)
	case "tr":
		ax.From, ax.To = uniform(r, 0.2e-9, 1e-9), uniform(r, 2e-9, 5e-9)
	}
	return ax
}

// sweepPairs lists the ordered (outer, inner) axis pairs; slope and tr
// set the same knob, so they never pair.
var sweepPairs = func() [][2]string {
	axes := []string{"n", "l", "c", "slope", "tr"}
	var pairs [][2]string
	for _, a := range axes {
		for _, b := range axes {
			if a != b && !(a == "slope" && b == "tr" || a == "tr" && b == "slope") {
				pairs = append(pairs, [2]string{a, b})
			}
		}
	}
	return pairs
}()

func newSweepDraw(*rand.Rand) func(*rand.Rand) request {
	pairs := cycler{n: len(sweepPairs)}
	return func(r *rand.Rand) request {
		pair := sweepPairs[pairs.next(r)]
		base := drawItem(r)
		base.Sensitivity = false
		body := sweepBody{Params: base, Axes: []serve.SweepAxis{drawAxis(r, pair[0]), drawAxis(r, pair[1])}}
		return request{body: mustJSON(body), spec: body, units: 1}
	}
}

// impedanceBody is the /v1/impedance request for the sweep and optimize
// workloads. Every field is explicit, so the in-process evaluation reads
// the same values the server resolves.
type impedanceBody struct {
	Package   string  `json:"package"`
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	Pads      int     `json:"pads"`
	Mode      string  `json:"mode"`
	From      float64 `json:"from"`
	To        float64 `json:"to"`
	Points    int     `json:"points"`
	DecapC    float64 `json:"decap_c,omitempty"`
	DecapESR  float64 `json:"decap_esr,omitempty"`
	MaxDecaps int     `json:"max_decaps,omitempty"`
}

const (
	impedancePoints  = 200
	impedanceHotSize = 32 // fits ProfileCache's 128 entries
)

// impedanceSides is the mesh edge range of impedance requests, 4..12.
const impedanceSides = 9

func drawImpedanceSpec(r *rand.Rand, rows, cols int) impedanceBody {
	return impedanceBody{
		Package: packages[r.IntN(len(packages))],
		Rows:    rows,
		Cols:    cols,
		Pads:    1 + r.IntN(8),
		Mode:    "sweep",
		From:    logUniform(r, 1e5, 1e7),
		To:      logUniform(r, 1e9, 1e11),
		Points:  impedancePoints,
	}
}

// newImpedanceDraw draws a quarter of the requests from the hot set and
// cycles the fresh ones through every mesh size. Like maxssn's, the hot
// share and the hot-set size are assumptions, not measured caller traffic.
func newImpedanceDraw(hr *rand.Rand) func(*rand.Rand) request {
	hot := make([]impedanceBody, impedanceHotSize)
	for i := range hot {
		hot[i] = drawImpedanceSpec(hr, 4+hr.IntN(impedanceSides), 4+hr.IntN(impedanceSides))
	}
	meshes := cycler{n: impedanceSides * impedanceSides}
	return func(r *rand.Rand) request {
		rq := request{units: 1}
		var body impedanceBody
		if r.IntN(4) == 0 {
			body = hot[r.IntN(len(hot))]
			rq.hot = 1
		} else {
			cell := meshes.next(r)
			body = drawImpedanceSpec(r, 4+cell/impedanceSides, 4+cell%impedanceSides)
		}
		rq.body, rq.spec = mustJSON(body), body
		return rq
	}
}

// optimizeSides is the mesh edge range of optimize requests, 4..8.
const optimizeSides = 5

// newOptimizeDraw deals a fixed suite of one request per mesh size, in a
// fresh seeded order each cycle. Package, pads (2-6), max_decaps (2-4) and
// decap_c (1-2 nF) are spread over the sizes Latin-square style rather than
// drawn. How many trial sites the greedy search retires before it stops
// flips with decap_c from one request to the next, so requests on one mesh
// differ up to 40x in cost, and cost grows about 200x from a 4x4 to an 8x8
// mesh. With fresh draws, the single-proc cost of a run's requests varied
// by 17% (coefficient of variation) from seed to seed: the numbers would
// have measured the draw.
func newOptimizeDraw(*rand.Rand) func(*rand.Rand) request {
	meshes := cycler{n: optimizeSides * optimizeSides}
	return func(r *rand.Rand) request {
		cell := meshes.next(r)
		i, j := cell/optimizeSides, cell%optimizeSides
		body := impedanceBody{
			Package:   packages[(i+j)%len(packages)],
			Rows:      4 + i,
			Cols:      4 + j,
			Pads:      2 + (i+2*j)%5,
			Mode:      "optimize",
			From:      1e6,
			To:        1e10,
			Points:    60,
			DecapC:    1e-9 * (1 + float64((3*i+j)%5)/4),
			DecapESR:  5e-3,
			MaxDecaps: 2 + (2*i+j)%3,
		}
		return request{body: mustJSON(body), spec: body, units: 1}
	}
}

// oracleChunk is the design points per oracle request: small enough that
// a round holds many requests, large enough that the HTTP exchange is
// noise next to the transient simulations.
const oracleChunk = 8

// oracleSuite is the number of campaign chunks, with campaign seeds 1 to
// oracleSuite, that oracle requests cycle through in a fresh seeded order
// each cycle: 512 design points. Like optimize's, the suite is fixed
// because cost is heavy-tailed in the inputs: a point takes from a few
// hundred to 120000 transient steps, so a round's time and its child's
// peak memory follow its stiffest points. With fresh chunk seeds, the
// median over rounds of the child's peak RSS varied by 0.3 of its median
// from seed to seed at 5 s runs.
const oracleSuite = 64

func newOracleDraw(*rand.Rand) func(*rand.Rand) request {
	chunks := cycler{n: oracleSuite}
	return func(r *rand.Rand) request {
		q := oracleQuery{Seed: int64(1 + chunks.next(r)), Points: oracleChunk}
		return request{body: mustJSON(q), spec: q, units: 1}
	}
}
