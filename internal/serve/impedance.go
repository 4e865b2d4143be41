package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"ssnkit/internal/colwire"
	"ssnkit/internal/pdn"
	"ssnkit/internal/pkgmodel"
	"ssnkit/internal/spice"
	"ssnkit/internal/sweep"
)

// impedanceRequest asks for frequency-domain PDN input impedance of a
// package-class RLC grid: one frequency (point), a log/linear sweep
// streamed as NDJSON or SSNC blocks (sweep), or greedy adjoint-guided
// decap placement (optimize).
type impedanceRequest struct {
	// Grid geometry: package class plus mesh dimensions and pad count, fed
	// to pkgmodel.DefaultPDN.
	Package string `json:"package,omitempty"` // pga (default), qfp, bga, cob
	Rows    int    `json:"rows,omitempty"`    // default 4
	Cols    int    `json:"cols,omitempty"`    // default 4
	Pads    int    `json:"pads,omitempty"`    // default 4

	// Mode selects the analysis; empty means point when freq is set,
	// sweep otherwise.
	Mode string  `json:"mode,omitempty"` // point | sweep | optimize
	Freq float64 `json:"freq,omitempty"` // point mode, Hz

	// Frequency grid (sweep and optimize modes). Spacing is logarithmic
	// unless linear is set — PDN resonances spread over decades.
	From   float64 `json:"from,omitempty"`   // default 1e6 Hz
	To     float64 `json:"to,omitempty"`     // default 1e10 Hz
	Points int     `json:"points,omitempty"` // default 200
	Linear bool    `json:"linear,omitempty"`

	// WithSens attaches adjoint d|Z|/d(element) sensitivities to point
	// responses and NDJSON sweep records (one transposed solve per
	// frequency). Columnar sweeps carry no sensitivity columns.
	WithSens bool `json:"with_sens,omitempty"`
	Workers  int  `json:"workers,omitempty"`

	// Optimize mode: the unit decap placed per greedy step and the
	// placement budget. DecapSites restricts candidates to the listed mesh
	// node ids; empty means every mesh node.
	DecapC     float64 `json:"decap_c,omitempty"`    // default 1e-9 F
	DecapESR   float64 `json:"decap_esr,omitempty"`  // default 5e-3 Ohm
	MaxDecaps  int     `json:"max_decaps,omitempty"` // default 4, max 64
	DecapSites []int   `json:"decap_sites,omitempty"`
}

// impedanceSens is one adjoint sensitivity entry on the wire.
type impedanceSens struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`  // R, L or C
	Value float64 `json:"value"` // element value the derivative is taken at
	DAbs  float64 `json:"dabs"`  // d|Z|/d(value)
}

// impedancePoint is one impedance sample: the point-mode response body and
// the sweep-mode NDJSON record.
type impedancePoint struct {
	Freq float64         `json:"freq"`
	ZRe  float64         `json:"z_re"`
	ZIm  float64         `json:"z_im"`
	ZMag float64         `json:"z_mag"`
	Sens []impedanceSens `json:"sens,omitempty"`
}

// impedanceStats summarizes a completed sweep.
type impedanceStats struct {
	Points   int     `json:"points"`
	PeakFreq float64 `json:"peak_freq"`
	PeakZ    float64 `json:"peak_z"`
	Workers  int     `json:"workers"`
}

// impedanceSummary is the terminal NDJSON record of an impedance sweep.
type impedanceSummary struct {
	Done  bool           `json:"done"`
	Stats impedanceStats `json:"stats"`
}

// impedanceOptimizeResponse reports a greedy decap-placement run.
type impedanceOptimizeResponse struct {
	PeakBefore float64         `json:"peak_before"`
	PeakAfter  float64         `json:"peak_after"`
	Placements []pdn.Placement `json:"placements"`
}

const (
	// maxPDNNodes bounds the mesh so one request cannot demand an
	// arbitrarily large factorization (a 64x64 mesh already has 24,328
	// MNA unknowns, segment mid nodes and branch currents included).
	maxPDNNodes = 4096
	// maxImpedanceDecaps bounds the greedy placement budget; each step
	// costs a full re-sweep.
	maxImpedanceDecaps = 64
)

// impedanceModes documents the mode enum in validation messages.
const impedanceModes = "point, sweep, optimize"

// buildImpedance validates the request and assembles the grid, frequency
// list, resolved mode, and run config — everything before the first write,
// so a 400 status line is still possible.
func (s *Server) buildImpedance(req impedanceRequest) (*pkgmodel.PDNGrid, []float64, string, pdn.Config, *apiError) {
	var cfg pdn.Config
	pkgName := req.Package
	if pkgName == "" {
		pkgName = "pga"
	}
	pkg, err := pkgmodel.ByName(pkgName)
	if err != nil {
		return nil, nil, "", cfg, &apiError{Code: CodeInvalidRequest, Message: err.Error(),
			Field: "package", Value: req.Package, Constraint: "one of pga, qfp, bga, cob"}
	}
	rows, cols, pads := req.Rows, req.Cols, req.Pads
	if rows == 0 {
		rows = 4
	}
	if cols == 0 {
		cols = 4
	}
	if pads == 0 {
		pads = 4
	}
	if rows < 1 || cols < 1 || pads < 1 {
		return nil, nil, "", cfg, &apiError{Code: CodeInvalidRequest,
			Message:    fmt.Sprintf("grid %dx%d with %d pads: dimensions must be positive", rows, cols, pads),
			Field:      "rows",
			Constraint: "rows, cols, pads >= 1"}
	}
	if rows*cols > maxPDNNodes {
		return nil, nil, "", cfg, &apiError{Code: CodeGridTooLarge,
			Message:    fmt.Sprintf("mesh of %d nodes exceeds the %d-node limit", rows*cols, maxPDNNodes),
			Field:      "rows",
			Constraint: fmt.Sprintf("rows*cols <= %d", maxPDNNodes)}
	}
	grid := pkgmodel.DefaultPDN(pkg, rows, cols, pads)

	mode := req.Mode
	if mode == "" {
		if req.Freq > 0 {
			mode = "point"
		} else {
			mode = "sweep"
		}
	}
	switch mode {
	case "point", "sweep", "optimize":
	default:
		return nil, nil, "", cfg, &apiError{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("unknown mode %q", req.Mode),
			Field:   "mode", Value: req.Mode, Constraint: "one of " + impedanceModes}
	}

	var freqs []float64
	if mode == "point" {
		if !(req.Freq > 0) {
			return nil, nil, "", cfg, &apiError{Code: CodeInvalidRequest,
				Message: fmt.Sprintf("point mode needs a positive freq, got %g", req.Freq),
				Field:   "freq", Value: req.Freq, Constraint: "freq > 0"}
		}
		freqs = []float64{req.Freq}
	} else {
		from, to, points := req.From, req.To, req.Points
		if from == 0 {
			from = 1e6
		}
		if to == 0 {
			to = 1e10
		}
		if points == 0 {
			points = 200
		}
		if points > s.cfg.MaxSweepPoints {
			return nil, nil, "", cfg, &apiError{Code: CodeGridTooLarge,
				Message:    fmt.Sprintf("frequency grid of %d points exceeds the %d-point limit", points, s.cfg.MaxSweepPoints),
				Field:      "points",
				Constraint: fmt.Sprintf("at most %d grid points", s.cfg.MaxSweepPoints)}
		}
		freqs, err = spice.FreqGrid(from, to, points, !req.Linear)
		if err != nil {
			return nil, nil, "", cfg, badRequest("%v", err)
		}
	}

	if len(req.DecapSites) > 0 && mode != "optimize" {
		return nil, nil, "", cfg, &apiError{Code: CodeInvalidRequest,
			Message: "decap_sites only selects optimizer candidates",
			Field:   "decap_sites", Constraint: "requires mode optimize"}
	}
	if mode == "optimize" {
		if req.WithSens {
			return nil, nil, "", cfg, &apiError{Code: CodeInvalidRequest,
				Message: "optimize mode reports placement gradients, not per-point sensitivities",
				Field:   "with_sens", Constraint: "with_sens applies to point and sweep modes"}
		}
		// Zero means the default for each of these, so only negative
		// values are refused; pdn would reject them too, but without
		// naming the field.
		if req.DecapC < 0 {
			return nil, nil, "", cfg, &apiError{Code: CodeInvalidRequest,
				Message: fmt.Sprintf("decap_c %g must be positive", req.DecapC),
				Field:   "decap_c", Value: req.DecapC, Constraint: "decap_c > 0 (omit for 1e-9)"}
		}
		if req.DecapESR < 0 {
			return nil, nil, "", cfg, &apiError{Code: CodeInvalidRequest,
				Message: fmt.Sprintf("decap_esr %g must be positive", req.DecapESR),
				Field:   "decap_esr", Value: req.DecapESR, Constraint: "decap_esr > 0 (omit for 5e-3)"}
		}
		if req.MaxDecaps < 0 {
			return nil, nil, "", cfg, &apiError{Code: CodeInvalidRequest,
				Message: fmt.Sprintf("max_decaps %d must be positive", req.MaxDecaps),
				Field:   "max_decaps", Value: req.MaxDecaps,
				Constraint: fmt.Sprintf("max_decaps >= 1 (omit for 4; capped at %d)", maxImpedanceDecaps)}
		}
		// The optimizer places at most one unit per site, so a node listed
		// twice would be two sites on one node and could take two units.
		listed := make(map[int]bool, len(req.DecapSites))
		for _, n := range req.DecapSites {
			if n < 0 || n >= rows*cols {
				return nil, nil, "", cfg, &apiError{Code: CodeInvalidRequest,
					Message: fmt.Sprintf("decap site %d outside the %dx%d mesh", n, rows, cols),
					Field:   "decap_sites", Value: n,
					Constraint: fmt.Sprintf("node ids within [0, %d)", rows*cols)}
			}
			if listed[n] {
				return nil, nil, "", cfg, &apiError{Code: CodeInvalidRequest,
					Message: fmt.Sprintf("decap site %d listed twice", n),
					Field:   "decap_sites", Value: n, Constraint: "distinct node ids"}
			}
			listed[n] = true
			grid.DecapSites = append(grid.DecapSites, pkgmodel.DecapSite{Node: n})
		}
	}

	cfg = pdn.Config{Workers: req.Workers, Gate: s.pool, WithSens: req.WithSens}
	if cfg.Workers <= 0 || cfg.Workers > s.cfg.Workers {
		cfg.Workers = s.cfg.Workers
	}
	return grid, freqs, mode, cfg, nil
}

// impedanceSensRecords shapes engine sensitivities for the wire.
func impedanceSensRecords(sens []spice.SensEntry) []impedanceSens {
	if len(sens) == 0 {
		return nil
	}
	out := make([]impedanceSens, len(sens))
	for i, e := range sens {
		out[i] = impedanceSens{Name: e.Name, Kind: string(e.Kind), Value: e.Value, DAbs: e.DAbs}
	}
	return out
}

func impedanceRecord(p pdn.Point) impedancePoint {
	return impedancePoint{
		Freq: p.Freq,
		ZRe:  real(p.Z),
		ZIm:  imag(p.Z),
		ZMag: p.AbsZ,
		Sens: impedanceSensRecords(p.Sens),
	}
}

// handleImpedance serves POST /v1/impedance (README "Impedance analysis"):
// point mode answers one frequency as JSON, sweep mode streams the |Z(f)|
// profile as NDJSON records plus a terminal done/stats summary — or as
// SSNC blocks with columns freq/z_re/z_im/z_mag when negotiated — and
// optimize mode runs greedy adjoint-guided decap placement.
func (s *Server) handleImpedance(w http.ResponseWriter, r *http.Request) {
	var req impedanceRequest
	if aerr := s.decodeJSON(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	grid, freqs, mode, cfg, aerr := s.buildImpedance(req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	columnar := columnarResponseFor(r)
	if columnar && mode == "sweep" && req.WithSens {
		writeError(w, &apiError{Code: CodeInvalidRequest,
			Message: "columnar impedance streams carry no sensitivity columns",
			Field:   "with_sens", Constraint: "use the NDJSON response for sensitivities"})
		return
	}
	s.metrics.impedance.inc(mode)
	s.metrics.impedancePoints.add(len(freqs))

	switch mode {
	case "optimize":
		res, err := pdn.OptimizeDecaps(r.Context(), pdn.OptimizeSpec{
			Grid:      grid,
			Freqs:     freqs,
			DecapC:    defaultF(req.DecapC, 1e-9),
			DecapESR:  defaultF(req.DecapESR, 5e-3),
			MaxDecaps: clampDecaps(req.MaxDecaps),
			Config:    cfg,
		})
		if err != nil {
			writeError(w, toAPIError(err))
			return
		}
		s.metrics.optimizeTrials.add(res.Trials.Screened, "screened")
		s.metrics.optimizeTrials.add(res.Trials.Rejected, "rejected")
		s.metrics.optimizeTrials.add(res.Trials.Accepted, "accepted")
		placements := res.Placements
		if placements == nil {
			placements = []pdn.Placement{}
		}
		writeJSON(w, http.StatusOK, impedanceOptimizeResponse{
			PeakBefore: res.PeakBefore,
			PeakAfter:  res.PeakAfter,
			Placements: placements,
		})
	case "point":
		prof, err := s.cachedProfile(r.Context(), grid, freqs, cfg)
		if err != nil {
			writeError(w, toAPIError(err))
			return
		}
		writeJSON(w, http.StatusOK, impedanceRecord(prof.Points[0]))
	default: // sweep
		prof, err := s.cachedProfile(r.Context(), grid, freqs, cfg)
		if err != nil {
			// Nothing has been written yet — the profile is computed before
			// streaming starts, so aborts keep their proper status line.
			writeError(w, toAPIError(err))
			return
		}
		stats := impedanceStats{
			Points:   len(prof.Points),
			PeakFreq: prof.Peak().Freq,
			PeakZ:    prof.Peak().AbsZ,
			Workers:  cfg.Workers,
		}
		if columnar {
			s.writeImpedanceColumnar(w, prof, stats)
			return
		}
		s.writeImpedanceNDJSON(w, prof, stats)
	}
}

// profileCacheSize bounds the sweep-profile LRU. Profiles can be large
// (points x sensitivities), so it stays modest.
const profileCacheSize = 128

// cachedProfile answers point and sweep requests through the sweep-profile
// LRU: identical requests (same mesh spec, frequency grid, and sensitivity
// flag — worker count is not part of the result, see profileKey) share one
// computed profile and skip the solver entirely. A sweep re-factorizes the
// MNA system at every frequency — milliseconds to seconds of solver work —
// so repeated identical sweeps (dashboards polling a fixed design, retried
// requests) collapse to a map lookup. Failed sweeps are not cached (see
// lru). A miss builds one pdn.Sweeper for the request so its pooled
// engines carry the symbolic analysis across every frequency of the sweep.
// Optimize mode bypasses this path: it mutates the grid.
func (s *Server) cachedProfile(ctx context.Context, grid *pkgmodel.PDNGrid, freqs []float64, cfg pdn.Config) (*pdn.Profile, error) {
	prof, hit, err := s.profiles.get(profileKey(grid, freqs, cfg.WithSens), func() (*pdn.Profile, error) {
		sw, err := pdn.NewSweeper(grid, cfg)
		if err != nil {
			return nil, err
		}
		return sw.RunProfile(ctx, freqs)
	})
	outcome := "miss"
	if hit {
		outcome = "hit"
	}
	s.metrics.impedanceCache.inc(outcome)
	return prof, err
}

// profileKey fingerprints everything a /v1/impedance profile depends on:
// the mesh spec (dimensions, segment and die parasitics, pin model, pad
// and decap placements, observation node) plus the frequency grid and the
// sensitivity flag. Worker count is deliberately excluded — per-point
// values are bit-identical for any worker count because every engine runs
// the same deterministic refactor sequence (DESIGN.md §17), so concurrency
// is not part of the result's identity. Float64s enter by their exact bit
// patterns; the frequency list is folded to its length, endpoints, and a
// 64-bit FNV-1a over all sample bits, which distinguishes log from linear
// spacing and any custom grid shape.
func profileKey(grid *pkgmodel.PDNGrid, freqs []float64, withSens bool) string {
	b := make([]byte, 0, 160)
	appInt := func(v int) {
		b = strconv.AppendInt(append(b, '|'), int64(v), 10)
	}
	appF := func(v float64) {
		b = strconv.AppendUint(append(b, '|'), math.Float64bits(v), 16)
	}
	appInt(grid.Rows)
	appInt(grid.Cols)
	appF(grid.SegR)
	appF(grid.SegL)
	appF(grid.DieC)
	appF(grid.DieR)
	appF(grid.Pin.L)
	appF(grid.Pin.C)
	appF(grid.Pin.R)
	appInt(grid.Obs)
	appInt(len(grid.PadSites))
	for _, p := range grid.PadSites {
		appInt(p)
	}
	appInt(len(grid.DecapSites))
	for _, d := range grid.DecapSites {
		appInt(d.Node)
		appF(d.C)
		appF(d.ESR)
	}
	if withSens {
		b = append(b, "|s"...)
	}
	appInt(len(freqs))
	if n := len(freqs); n > 0 {
		appF(freqs[0])
		appF(freqs[n-1])
	}
	h := uint64(fnvOffset)
	for _, f := range freqs {
		h = fnvWord(h, math.Float64bits(f))
	}
	b = strconv.AppendUint(append(b, '|'), h, 16)
	return string(b)
}

func defaultF(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

func clampDecaps(n int) int {
	if n == 0 {
		return 4
	}
	if n > maxImpedanceDecaps {
		return maxImpedanceDecaps
	}
	return n
}

// writeImpedanceNDJSON streams the profile as NDJSON records, one per
// frequency, then the terminal done/stats summary — or, should a record
// fail to encode, the {"error":…} record in its place.
func (s *Server) writeImpedanceNDJSON(w http.ResponseWriter, prof *pdn.Profile, stats impedanceStats) {
	st := startStream(w, "application/x-ndjson")
	var err error
	for i := range prof.Points {
		if err = appendImpedanceRecord(st.buf, &prof.Points[i]); err != nil {
			break
		}
		if err = st.endLine(); err != nil {
			break
		}
	}
	st.finish(impedanceSummary{Done: true, Stats: stats}, err)
}

// appendImpedanceRecord appends p's sweep record — the impedancePoint
// JSON — to buf: the four floats through the shared float appender, the
// optional sens array through sweep.AppendJSON. On error buf is left as it
// was.
func appendImpedanceRecord(buf *bytes.Buffer, p *pdn.Point) error {
	b := buf.AvailableBuffer()
	var err error
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`{"freq":`, p.Freq}, {`,"z_re":`, real(p.Z)}, {`,"z_im":`, imag(p.Z)}, {`,"z_mag":`, p.AbsZ}} {
		b = append(b, f.key...)
		if b, err = sweep.AppendJSONFloat(b, f.v); err != nil {
			return err
		}
	}
	if len(p.Sens) > 0 {
		b = append(b, `,"sens":`...)
		if b, err = sweep.AppendJSON(b, impedanceSensRecords(p.Sens)); err != nil {
			return err
		}
	}
	buf.Write(append(b, "}\n"...))
	return nil
}

// writeImpedanceColumnar streams the profile as SSNC blocks with columns
// freq, z_re, z_im, z_mag (sweepColBlockRows rows per block), then a
// terminal zero-row block whose meta is the done/stats summary (the error
// record should a block fail). The float64 bits are the NDJSON path's
// values exactly — JSON spells them in shortest round-trip decimal, SSNC
// ships the raw bits.
func (s *Server) writeImpedanceColumnar(w http.ResponseWriter, prof *pdn.Profile, stats impedanceStats) {
	s.metrics.columnar.inc("/v1/impedance", "out")
	st := startStream(w, colwire.ContentType)
	var err error
	cols := make([]float64, 4*sweepColBlockRows)
	for lo := 0; err == nil && lo < len(prof.Points); lo += sweepColBlockRows {
		hi := lo + sweepColBlockRows
		if hi > len(prof.Points) {
			hi = len(prof.Points)
		}
		n := hi - lo
		freq, zre := cols[0:n], cols[sweepColBlockRows:sweepColBlockRows+n]
		zim, zmag := cols[2*sweepColBlockRows:2*sweepColBlockRows+n], cols[3*sweepColBlockRows:3*sweepColBlockRows+n]
		for i := 0; i < n; i++ {
			p := &prof.Points[lo+i]
			freq[i] = p.Freq
			zre[i] = real(p.Z)
			zim[i] = imag(p.Z)
			zmag[i] = p.AbsZ
		}
		err = st.block(colwire.Block{Columns: []colwire.Column{
			{Name: "freq", Values: freq},
			{Name: "z_re", Values: zre},
			{Name: "z_im", Values: zim},
			{Name: "z_mag", Values: zmag},
		}})
	}
	st.finish(impedanceSummary{Done: true, Stats: stats}, err)
}
