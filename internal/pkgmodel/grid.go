package pkgmodel

import (
	"fmt"
	"strconv"

	"ssnkit/internal/circuit"
)

// PDNGrid describes the power-delivery network as a distributed RLC grid
// instead of one lumped L‖C: a Rows×Cols mesh of on-die rail nodes joined
// by R+L segments, per-node die capacitance, package pins (bond wire R+L
// plus pad capacitance) tying selected mesh nodes to the board, and decap
// sites (ESR in series with C) on selected mesh nodes. This is the model
// class the cuda_pdn interposer workload uses, scaled to package geometry.
//
// Node naming is deterministic — mesh node (r,c) is "n_r_c" — and every
// element carries a stable name ("segh_r_c", "segv_r_c", "cdie_r_c",
// "rpin_i"/"lpin_i"/"cpad_i", "resr_k"/"cdec_k"), so adjoint sensitivities
// reported per element name can be mapped back to grid coordinates.
type PDNGrid struct {
	Rows, Cols int // mesh dimensions (≥1 each)

	SegR float64 // rail segment resistance between adjacent mesh nodes, Ohm
	SegL float64 // rail segment inductance, H
	DieC float64 // per-node die (intrinsic + ODC) capacitance, F
	DieR float64 // ESR in series with each die capacitance, Ohm (0 = ideal)

	Pin      Pin   // package pin parasitics for each pad site
	PadSites []int // mesh node ids (r*Cols+c) bonded to package pins

	DecapSites []DecapSite // on-die decap placements

	Obs int // mesh node id whose impedance is observed (the "victim")
}

// DecapSite is one decap placement: C farads with ESR ohms in series,
// attached at mesh node id Node. C may be zero to reserve the site as an
// optimizer candidate (only the ESR branch is then omitted entirely, so the
// netlist stays minimal and nonsingular).
type DecapSite struct {
	Node int
	C    float64
	ESR  float64
}

// DefaultPDN builds a Rows×Cols grid with pads evenly spread along the
// mesh perimeter and segment/die values derived from the package class:
// the per-pin parasitics are the paper's numbers, the rail segments take
// handbook on-die values (mΩ and pH scale), and the die capacitance spreads
// the package pin capacitance plus an on-die budget across the mesh.
func DefaultPDN(p Package, rows, cols, pads int) *PDNGrid {
	if rows < 1 {
		rows = 1
	}
	if cols < 1 {
		cols = 1
	}
	if pads < 1 {
		pads = 1
	}
	g := &PDNGrid{
		Rows: rows,
		Cols: cols,
		SegR: 2e-3,                         // 2 mΩ per rail segment
		SegL: 10e-12,                       // 10 pH per rail segment
		DieC: 100e-12 / float64(rows*cols), // 100 pF of die cap spread over the mesh
		DieR: 1e-3,
		Pin:  p.Pin,
		Obs:  (rows/2)*cols + cols/2, // center node
	}
	g.PadSites = perimeterSites(rows, cols, pads)
	return g
}

// perimeterSites distributes n sites evenly along the mesh perimeter
// (clockwise from the top-left corner), falling back to all nodes when the
// mesh is too small to have a perimeter.
func perimeterSites(rows, cols, n int) []int {
	var ring []int
	switch {
	case rows == 1 && cols == 1:
		ring = []int{0}
	case rows == 1:
		for c := 0; c < cols; c++ {
			ring = append(ring, c)
		}
	case cols == 1:
		for r := 0; r < rows; r++ {
			ring = append(ring, r)
		}
	default:
		for c := 0; c < cols; c++ { // top row, left→right
			ring = append(ring, c)
		}
		for r := 1; r < rows; r++ { // right column, top→bottom
			ring = append(ring, r*cols+cols-1)
		}
		for c := cols - 2; c >= 0; c-- { // bottom row, right→left
			ring = append(ring, (rows-1)*cols+c)
		}
		for r := rows - 2; r >= 1; r-- { // left column, bottom→top
			ring = append(ring, r*cols)
		}
	}
	if n >= len(ring) {
		return ring
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ring[i*len(ring)/n])
	}
	return out
}

// NodeName returns the canonical mesh node name for node id (r*Cols+c).
func (g *PDNGrid) NodeName(id int) string {
	return pairName("n_", id/g.Cols, id%g.Cols)
}

// pairName returns prefix followed by r, '_' and c in decimal, the name
// fmt.Sprintf(prefix+"%d_%d", r, c) gives, built without fmt: a grid
// names several elements and nodes per mesh node.
func pairName(prefix string, r, c int) string {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	b = strconv.AppendInt(b, int64(r), 10)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(c), 10)
	return string(b)
}

// Validate checks the grid is well-formed.
func (g *PDNGrid) Validate() error {
	if g.Rows < 1 || g.Cols < 1 {
		return fmt.Errorf("pkgmodel: PDN grid %dx%d must be at least 1x1", g.Rows, g.Cols)
	}
	n := g.Rows * g.Cols
	if g.Rows > 1 || g.Cols > 1 {
		if g.SegR <= 0 || g.SegL <= 0 {
			return fmt.Errorf("pkgmodel: PDN segment R=%g L=%g must be positive", g.SegR, g.SegL)
		}
	}
	if g.DieC < 0 || g.DieR < 0 {
		return fmt.Errorf("pkgmodel: PDN die C=%g R=%g must be non-negative", g.DieC, g.DieR)
	}
	if g.Pin.L <= 0 || g.Pin.R <= 0 || g.Pin.C < 0 {
		return fmt.Errorf("pkgmodel: PDN pin parasitics L=%g R=%g C=%g invalid", g.Pin.L, g.Pin.R, g.Pin.C)
	}
	if len(g.PadSites) == 0 {
		return fmt.Errorf("pkgmodel: PDN grid needs at least one pad site")
	}
	for _, s := range g.PadSites {
		if s < 0 || s >= n {
			return fmt.Errorf("pkgmodel: pad site %d outside %dx%d mesh", s, g.Rows, g.Cols)
		}
	}
	for i, d := range g.DecapSites {
		if d.Node < 0 || d.Node >= n {
			return fmt.Errorf("pkgmodel: decap site %d at node %d outside mesh", i, d.Node)
		}
		if d.C < 0 || d.ESR < 0 {
			return fmt.Errorf("pkgmodel: decap site %d C=%g ESR=%g must be non-negative", i, d.C, d.ESR)
		}
		if d.C > 0 && d.ESR <= 0 {
			return fmt.Errorf("pkgmodel: decap site %d needs a positive ESR (ideal C forms a lossless resonator)", i)
		}
	}
	if g.Obs < 0 || g.Obs >= n {
		return fmt.Errorf("pkgmodel: observation node %d outside mesh", g.Obs)
	}
	return nil
}

// Build synthesizes the grid netlist. The returned observation index is the
// circuit node index of g.Obs, ready to hand to the AC engine.
func (g *PDNGrid) Build() (*circuit.Circuit, int, error) {
	if err := g.Validate(); err != nil {
		return nil, 0, err
	}
	ckt := circuit.New("pdn-" + strconv.Itoa(g.Rows) + "x" + strconv.Itoa(g.Cols))
	nodes := make([]string, g.Rows*g.Cols)
	for id := range nodes {
		nodes[id] = g.NodeName(id)
	}
	// Rail mesh: horizontal then vertical R+L segments, each with an
	// internal mid node so R and L are separately addressable parameters.
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			n := nodes[r*g.Cols+c]
			if c+1 < g.Cols {
				mid := pairName("mh_", r, c)
				ckt.AddR(pairName("segrh_", r, c), n, mid, g.SegR)
				ckt.AddL(pairName("seglh_", r, c), mid, nodes[r*g.Cols+c+1], g.SegL)
			}
			if r+1 < g.Rows {
				mid := pairName("mv_", r, c)
				ckt.AddR(pairName("segrv_", r, c), n, mid, g.SegR)
				ckt.AddL(pairName("seglv_", r, c), mid, nodes[(r+1)*g.Cols+c], g.SegL)
			}
			if g.DieC > 0 {
				if g.DieR > 0 {
					mid := pairName("md_", r, c)
					ckt.AddR(pairName("rdie_", r, c), n, mid, g.DieR)
					ckt.AddC(pairName("cdie_", r, c), mid, "0", g.DieC)
				} else {
					ckt.AddC(pairName("cdie_", r, c), n, "0", g.DieC)
				}
			}
		}
	}
	// Package pins: bond-wire R+L from the pad site to board ground, pad
	// capacitance at the site.
	for i, site := range g.PadSites {
		n, k := nodes[site], strconv.Itoa(i)
		mid := "mp_" + k
		ckt.AddR("rpin_"+k, n, mid, g.Pin.R)
		ckt.AddL("lpin_"+k, mid, "0", g.Pin.L)
		if g.Pin.C > 0 {
			ckt.AddC("cpad_"+k, n, "0", g.Pin.C)
		}
	}
	// Decap sites: ESR in series with C. Zero-C candidate sites add no
	// elements — their placement gradient is evaluated virtually from the
	// adjoint solution.
	for i, d := range g.DecapSites {
		if d.C <= 0 {
			continue
		}
		n, k := nodes[d.Node], strconv.Itoa(i)
		mid := "mc_" + k
		ckt.AddR("resr_"+k, n, mid, d.ESR)
		ckt.AddC("cdec_"+k, mid, "0", d.C)
	}
	obs := ckt.LookupNode(nodes[g.Obs])
	if obs < 0 {
		return nil, 0, fmt.Errorf("pkgmodel: observation node %q missing from netlist", nodes[g.Obs])
	}
	return ckt, obs, nil
}
