package pkgmodel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ssnkit/internal/circuit"
)

func TestDefaultPDNBuilds(t *testing.T) {
	g := DefaultPDN(PGA, 4, 5, 6)
	ckt, obs, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if obs <= 0 {
		t.Fatalf("bad observation node %d", obs)
	}
	if err := ckt.Validate(); err != nil {
		t.Fatalf("netlist invalid: %v", err)
	}
	// Element census: 4x5 mesh has 4*4 horizontal + 3*5 vertical segments,
	// each an R+L pair; 20 die R+C pairs; 6 pads each R+L+C.
	var nr, nl, nc int
	for _, el := range ckt.Elements {
		switch el.(type) {
		case *circuit.Resistor:
			nr++
		case *circuit.Inductor:
			nl++
		case *circuit.Capacitor:
			nc++
		}
	}
	segs := 4*4 + 3*5
	if nr != segs+20+6 {
		t.Errorf("resistors = %d, want %d", nr, segs+20+6)
	}
	if nl != segs+6 {
		t.Errorf("inductors = %d, want %d", nl, segs+6)
	}
	if nc != 20+6 {
		t.Errorf("capacitors = %d, want %d", nc, 26)
	}
}

func TestPDNGridPerimeterPads(t *testing.T) {
	// 3x3 mesh perimeter has 8 nodes; asking for more pads than perimeter
	// nodes must clamp, and pad sites must be distinct perimeter nodes.
	sites := perimeterSites(3, 3, 100)
	if len(sites) != 8 {
		t.Fatalf("perimeter of 3x3 = %d nodes, want 8", len(sites))
	}
	seen := map[int]bool{}
	for _, s := range sites {
		if seen[s] {
			t.Errorf("duplicate pad site %d", s)
		}
		seen[s] = true
		if s == 4 {
			t.Error("center node 4 is not on the perimeter")
		}
	}
	// 1xN and Nx1 degenerate meshes still produce sites.
	if got := perimeterSites(1, 1, 3); len(got) != 1 || got[0] != 0 {
		t.Errorf("1x1 perimeter = %v", got)
	}
	if got := perimeterSites(1, 4, 2); len(got) != 2 {
		t.Errorf("1x4 two pads = %v", got)
	}
}

func TestPDNGridDecapSites(t *testing.T) {
	g := DefaultPDN(BGA, 2, 2, 2)
	g.DecapSites = []DecapSite{
		{Node: 0, C: 1e-9, ESR: 5e-3},
		{Node: 3, C: 0, ESR: 0}, // empty candidate: no elements
	}
	ckt, _, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, el := range ckt.Elements {
		names = append(names, el.ElemName())
	}
	all := strings.Join(names, ",")
	if !strings.Contains(all, "cdec_0") || !strings.Contains(all, "resr_0") {
		t.Errorf("placed decap elements missing from %s", all)
	}
	if strings.Contains(all, "cdec_1") || strings.Contains(all, "resr_1") {
		t.Errorf("empty candidate site leaked elements into %s", all)
	}
	if err := ckt.Validate(); err != nil {
		t.Fatalf("netlist invalid: %v", err)
	}
}

func TestPDNGridValidate(t *testing.T) {
	ok := func() *PDNGrid { return DefaultPDN(PGA, 3, 3, 4) }
	cases := []struct {
		name string
		mut  func(*PDNGrid)
	}{
		{"zero-rows", func(g *PDNGrid) { g.Rows = 0 }},
		{"neg-segR", func(g *PDNGrid) { g.SegR = -1 }},
		{"zero-segL", func(g *PDNGrid) { g.SegL = 0 }},
		{"neg-dieC", func(g *PDNGrid) { g.DieC = -1e-12 }},
		{"zero-pinL", func(g *PDNGrid) { g.Pin.L = 0 }},
		{"no-pads", func(g *PDNGrid) { g.PadSites = nil }},
		{"pad-out-of-range", func(g *PDNGrid) { g.PadSites = []int{99} }},
		{"obs-out-of-range", func(g *PDNGrid) { g.Obs = -1 }},
		{"decap-out-of-range", func(g *PDNGrid) { g.DecapSites = []DecapSite{{Node: 99, C: 1e-9, ESR: 1e-3}} }},
		{"decap-neg-c", func(g *PDNGrid) { g.DecapSites = []DecapSite{{Node: 0, C: -1, ESR: 1e-3}} }},
		{"decap-no-esr", func(g *PDNGrid) { g.DecapSites = []DecapSite{{Node: 0, C: 1e-9, ESR: 0}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := ok()
			tc.mut(g)
			if _, _, err := g.Build(); err == nil {
				t.Error("Build accepted an invalid grid")
			}
		})
	}
	if _, _, err := ok().Build(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
}

func TestPDNGrid1x1ReducesToLumped(t *testing.T) {
	// A 1x1 grid with one pad and no die ESR is exactly the lumped
	// pin model: R+L to ground with C at the node.
	g := &PDNGrid{
		Rows: 1, Cols: 1,
		DieC: 8e-12, DieR: 0,
		Pin:      PGA.Pin,
		PadSites: []int{0},
		Obs:      0,
	}
	ckt, obs, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := ckt.NodeName(obs); got != "n_0_0" {
		t.Errorf("observation node %q", got)
	}
	var count int
	for range ckt.Elements {
		count++
	}
	// rpin, lpin, cpad, cdie
	if count != 4 {
		t.Errorf("1x1 grid has %d elements, want 4", count)
	}
}

// fmtBuild is the netlist Build synthesized when it named every node and
// element with fmt.Sprintf, kept as the reference for its names.
func fmtBuild(g *PDNGrid) *circuit.Circuit {
	name := func(id int) string { return fmt.Sprintf("n_%d_%d", id/g.Cols, id%g.Cols) }
	ckt := circuit.New(fmt.Sprintf("pdn-%dx%d", g.Rows, g.Cols))
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			n := name(r*g.Cols + c)
			if c+1 < g.Cols {
				mid := fmt.Sprintf("mh_%d_%d", r, c)
				ckt.AddR(fmt.Sprintf("segrh_%d_%d", r, c), n, mid, g.SegR)
				ckt.AddL(fmt.Sprintf("seglh_%d_%d", r, c), mid, name(r*g.Cols+c+1), g.SegL)
			}
			if r+1 < g.Rows {
				mid := fmt.Sprintf("mv_%d_%d", r, c)
				ckt.AddR(fmt.Sprintf("segrv_%d_%d", r, c), n, mid, g.SegR)
				ckt.AddL(fmt.Sprintf("seglv_%d_%d", r, c), mid, name((r+1)*g.Cols+c), g.SegL)
			}
			if g.DieC > 0 {
				if g.DieR > 0 {
					mid := fmt.Sprintf("md_%d_%d", r, c)
					ckt.AddR(fmt.Sprintf("rdie_%d_%d", r, c), n, mid, g.DieR)
					ckt.AddC(fmt.Sprintf("cdie_%d_%d", r, c), mid, "0", g.DieC)
				} else {
					ckt.AddC(fmt.Sprintf("cdie_%d_%d", r, c), n, "0", g.DieC)
				}
			}
		}
	}
	for i, site := range g.PadSites {
		n := name(site)
		mid := fmt.Sprintf("mp_%d", i)
		ckt.AddR(fmt.Sprintf("rpin_%d", i), n, mid, g.Pin.R)
		ckt.AddL(fmt.Sprintf("lpin_%d", i), mid, "0", g.Pin.L)
		if g.Pin.C > 0 {
			ckt.AddC(fmt.Sprintf("cpad_%d", i), n, "0", g.Pin.C)
		}
	}
	for k, d := range g.DecapSites {
		if d.C <= 0 {
			continue
		}
		n := name(d.Node)
		mid := fmt.Sprintf("mc_%d", k)
		ckt.AddR(fmt.Sprintf("resr_%d", k), n, mid, d.ESR)
		ckt.AddC(fmt.Sprintf("cdec_%d", k), mid, "0", d.C)
	}
	return ckt
}

// TestPDNGridNamesMatchFmt: on the catalog meshes, with and without an
// ideal die capacitance and with placed and zero-C decap sites, Build
// yields the netlist of the fmt-named reference — every node name, in
// order, and every element with its name, nodes and value — and NodeName
// gives the fmt form of every mesh node.
func TestPDNGridNamesMatchFmt(t *testing.T) {
	for _, pkg := range Catalog() {
		for _, rc := range [][2]int{{1, 1}, {1, 6}, {4, 4}, {5, 8}, {12, 12}, {13, 101}} {
			for _, dieR := range []float64{1e-3, 0} {
				g := DefaultPDN(pkg, rc[0], rc[1], 6)
				g.DieR = dieR
				n := g.Rows * g.Cols
				for k := 0; k < 12; k++ {
					g.DecapSites = append(g.DecapSites, DecapSite{Node: (k * 37) % n, C: float64(k%3) * 1e-9, ESR: 5e-3})
				}
				got, obs, err := g.Build()
				if err != nil {
					t.Fatal(err)
				}
				want := fmtBuild(g)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %dx%d dieR=%g: netlist differs from the fmt-named reference", pkg.Name, g.Rows, g.Cols, dieR)
				}
				if name := fmt.Sprintf("n_%d_%d", g.Obs/g.Cols, g.Obs%g.Cols); obs != want.LookupNode(name) {
					t.Fatalf("%s %dx%d: observation node %d, want %d", pkg.Name, g.Rows, g.Cols, obs, want.LookupNode(name))
				}
				for id := 0; id < n; id++ {
					if got, want := g.NodeName(id), fmt.Sprintf("n_%d_%d", id/g.Cols, id%g.Cols); got != want {
						t.Fatalf("NodeName(%d) = %q, want %q", id, got, want)
					}
				}
			}
		}
	}
}
