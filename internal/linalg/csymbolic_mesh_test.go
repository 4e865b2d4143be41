package linalg_test

import (
	"fmt"
	"slices"
	"testing"

	"ssnkit/internal/circuit"
	"ssnkit/internal/linalg"
	"ssnkit/internal/pkgmodel"
)

// meshPattern returns the CSR pattern of the AC MNA matrix of an R/L/C
// netlist: node voltages (ground dropped), then one branch unknown per
// inductor; every two-terminal element couples its nodes, and every
// inductor its nodes and its branch.
func meshPattern(t *testing.T, ckt *circuit.Circuit) (rowPtr, colIdx []int) {
	t.Helper()
	nodes := ckt.NumNodes() - 1
	var rows [][]int
	add := func(i, j int) {
		for len(rows) <= max(i, j) {
			rows = append(rows, nil)
		}
		if i >= 0 && j >= 0 {
			rows[i] = append(rows[i], j)
		}
	}
	pair := func(n1, n2 int) {
		i, j := n1-1, n2-1
		add(i, i)
		add(j, j)
		add(i, j)
		add(j, i)
	}
	br := nodes
	for _, el := range ckt.Elements {
		switch e := el.(type) {
		case *circuit.Resistor:
			pair(e.N1, e.N2)
		case *circuit.Capacitor:
			pair(e.N1, e.N2)
		case *circuit.Inductor:
			for _, n := range []int{e.N1, e.N2} {
				add(n-1, br)
				add(br, n-1)
			}
			add(br, br)
			br++
		default:
			t.Fatalf("meshPattern: unexpected element %T", el)
		}
	}
	rowPtr = make([]int, len(rows)+1)
	for i, r := range rows {
		slices.Sort(r)
		colIdx = append(colIdx, slices.Compact(r)...)
		rowPtr[i+1] = len(colIdx)
	}
	return rowPtr, colIdx
}

// TestCSymbolicMeshesMatchReference: on the PDN meshes of every catalog
// package from 4x4 to 12x12 (with decap sites on the larger ones) and on
// 32x32 and 64x64 PGA meshes, the analysis produces the ordering, factor
// layout and update map of the quadratic reference analysis.
func TestCSymbolicMeshesMatchReference(t *testing.T) {
	type mesh struct {
		pkg        pkgmodel.Package
		rows, cols int
	}
	var meshes []mesh
	for _, pkg := range pkgmodel.Catalog() {
		for _, rc := range [][2]int{{4, 4}, {5, 8}, {8, 7}, {8, 8}, {12, 12}} {
			meshes = append(meshes, mesh{pkg, rc[0], rc[1]})
		}
	}
	meshes = append(meshes, mesh{pkgmodel.PGA, 32, 32}, mesh{pkgmodel.PGA, 64, 64})
	for _, m := range meshes {
		t.Run(fmt.Sprintf("%s-%dx%d", m.pkg.Name, m.rows, m.cols), func(t *testing.T) {
			grid := pkgmodel.DefaultPDN(m.pkg, m.rows, m.cols, 4)
			if m.rows >= 8 {
				for k := 0; k < 3; k++ {
					node := (k*7 + 3) % (m.rows * m.cols)
					grid.DecapSites = append(grid.DecapSites, pkgmodel.DecapSite{Node: node, C: 1e-9, ESR: 5e-3})
				}
			}
			ckt, _, err := grid.Build()
			if err != nil {
				t.Fatal(err)
			}
			rowPtr, colIdx := meshPattern(t, ckt)
			if err := linalg.CheckAgainstReference(rowPtr, colIdx); err != nil {
				t.Fatal(err)
			}
		})
	}
}
