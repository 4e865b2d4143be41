package spice

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"ssnkit/internal/circuit"
	"ssnkit/internal/linalg"
	"ssnkit/internal/pkgmodel"
)

// acCatalogDigest is the FNV-64a digest of every AC bit the catalog sweep
// in TestACCatalogDigest produces. It pins the symbolic backend's output
// across kernel changes: a change to the analysis, the refactor or the
// solves that keeps every floating-point operation, operand and order
// leaves it as it is. Never regenerate it for a kernel change; a new
// value means some bit moved.
const acCatalogDigest = "bffaa84f4778e6d1"

// TestACCatalogDigest hashes the bits of the plan's answers over all 81
// meshes from 4x4 to 12x12 of every catalog package, at Gmin 0 and 1e-9,
// on 400 log-spaced points from 1e5 to 1e11 Hz: Impedance z, ImpedanceSens
// z and every DZ and DAbs at every point, and at every 25th point the Snapshot Z
// and ShuntRC at three mesh sites (the observation node and two corners).
func TestACCatalogDigest(t *testing.T) {
	freqs, err := FreqGrid(1e5, 1e11, 400, true)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := pkgmodel.Catalog()
	sums := make([]uint64, len(pkgs))
	// One parallel subtest per package; the digests combine in catalog
	// order, so the result does not depend on scheduling.
	t.Run("packages", func(t *testing.T) {
		for i, pkg := range pkgs {
			i, pkg := i, pkg
			t.Run(pkg.Name, func(t *testing.T) {
				t.Parallel()
				sums[i] = acPackageDigest(t, pkg, freqs)
			})
		}
	})
	h := fnv.New64a()
	for _, s := range sums {
		h.Write(binary.LittleEndian.AppendUint64(nil, s))
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != acCatalogDigest {
		t.Errorf("AC catalog digest %s, want %s: some AC bit moved", got, acCatalogDigest)
	}
}

// acPackageDigest hashes one package's share of TestACCatalogDigest.
func acPackageDigest(t *testing.T, pkg pkgmodel.Package, freqs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	putC := func(z complex128) { put(real(z)); put(imag(z)) }
	var sens []SensEntry
	var fac ACFactor
	for rows := 4; rows <= 12; rows++ {
		for cols := 4; cols <= 12; cols++ {
			grid := pkgmodel.DefaultPDN(pkg, rows, cols, 4)
			ckt, obs, err := grid.Build()
			if err != nil {
				t.Fatal(err)
			}
			sites := []int{obs, ckt.LookupNode(grid.NodeName(0)), ckt.LookupNode(grid.NodeName(rows*cols - 1))}
			for _, gmin := range []float64{0, 1e-9} {
				name := fmt.Sprintf("%s %dx%d gmin=%g", pkg.Name, rows, cols, gmin)
				eng, err := NewAC(ckt, ACOptions{Gmin: gmin, Backend: ACSymbolic})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for k, f := range freqs {
					w := 2 * math.Pi * f
					z, err := eng.Impedance(w, obs)
					if err != nil {
						t.Fatalf("%s f=%g: %v", name, f, err)
					}
					putC(z)
					if z, sens, err = eng.ImpedanceSens(w, obs, sens[:0]); err != nil {
						t.Fatalf("%s f=%g: %v", name, f, err)
					}
					putC(z)
					for _, s := range sens {
						putC(s.DZ)
						put(s.DAbs)
					}
					if k%25 != 0 {
						continue
					}
					ok, err := eng.Snapshot(w, obs, &fac)
					if err != nil || !ok {
						t.Fatalf("%s f=%g: snapshot ok=%v err=%v", name, f, ok, err)
					}
					putC(fac.Z())
					for _, n := range sites {
						zs, err := fac.ShuntRC(n, 5e-3, 2e-9)
						if err != nil {
							t.Fatalf("%s f=%g: %v", name, f, err)
						}
						putC(zs)
					}
				}
			}
		}
	}
	return h.Sum64()
}

// acPivotedDigest is the FNV-64a digest of every AC bit the pivoted
// backends produce in TestACPivotedDigest: the forced dense and forced
// sparse engines and the automatic fallback for patterns that need
// pivoting, none of which the catalog digest reaches. Like
// acCatalogDigest it is never regenerated for a refactor; a new value
// means some bit moved.
const acPivotedDigest = "60bf9c6393ede6e7"

// TestACPivotedDigest hashes the bits of Impedance z, ImpedanceSens z and
// every DZ and DAbs at ω = 0 and on 24 log-spaced points from 1e5 to
// 1e11 Hz over three groups: forced ACDense and ACSparse on every catalog
// package at 4x4-6x6, Gmin 0 and 1e-9; ACAuto on a 6x6 PGA mesh with a
// voltage source added (the pattern needs pivoting, so the engine runs
// the pivoted sparse path); and 200 seeded random R/L/C/K/V decks on both
// forced backends, Gmin 0 and 1e-9.
func TestACPivotedDigest(t *testing.T) {
	freqs, err := FreqGrid(1e5, 1e11, 24, true)
	if err != nil {
		t.Fatal(err)
	}
	omegas := []float64{0}
	for _, f := range freqs {
		omegas = append(omegas, 2*math.Pi*f)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	putC := func(z complex128) { put(real(z)); put(imag(z)) }
	var sens []SensEntry
	sweep := func(name string, ckt *circuit.Circuit, obs int, opts ACOptions) *ACEngine {
		eng, err := NewAC(ckt, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range omegas {
			z, err := eng.Impedance(w, obs)
			if err != nil {
				t.Fatalf("%s ω=%g: %v", name, w, err)
			}
			putC(z)
			if z, sens, err = eng.ImpedanceSens(w, obs, sens[:0]); err != nil {
				t.Fatalf("%s ω=%g: %v", name, w, err)
			}
			putC(z)
			for _, s := range sens {
				putC(s.DZ)
				put(s.DAbs)
			}
		}
		return eng
	}
	backends := []ACBackend{ACDense, ACSparse}
	for _, pkg := range pkgmodel.Catalog() {
		for rc := 4; rc <= 6; rc++ {
			ckt, obs, err := pkgmodel.DefaultPDN(pkg, rc, rc, 4).Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, gmin := range []float64{0, 1e-9} {
				for _, b := range backends {
					name := fmt.Sprintf("%s %dx%d gmin=%g backend=%d", pkg.Name, rc, rc, gmin, b)
					sweep(name, ckt, obs, ACOptions{Gmin: gmin, Backend: b})
				}
			}
		}
	}

	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, 6, 6, 4)
	ckt, obs, err := grid.Build()
	if err != nil {
		t.Fatal(err)
	}
	ckt.AddV("vsense", "sense", "0", circuit.DC(0))
	ckt.AddR("rsense", "sense", grid.NodeName(0), 0.5)
	eng := sweep("pga 6x6 + vsource", ckt, obs, ACOptions{})
	if _, sparse := eng.legacy.(*linalg.SparseLU[complex128]); eng.plan != nil || !sparse || eng.n < sparseThreshold {
		t.Fatalf("pga 6x6 + vsource: n=%d plan=%v legacy=%T, want the pivoted sparse path", eng.n, eng.plan != nil, eng.legacy)
	}

	rng := rand.New(rand.NewSource(26))
	for deck := 0; deck < 200; deck++ {
		ckt := randomACDeck(rng)
		for _, gmin := range []float64{0, 1e-9} {
			for _, b := range backends {
				name := fmt.Sprintf("deck %d gmin=%g backend=%d", deck, gmin, b)
				sweep(name, ckt, ckt.LookupNode("n0"), ACOptions{Gmin: gmin, Backend: b})
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != acPivotedDigest {
		t.Errorf("AC pivoted digest %s, want %s: some AC bit moved", got, acPivotedDigest)
	}
}

// randomACDeck draws a small R/L/C/K/V circuit that is nonsingular at
// every frequency, ω = 0 included: a chain of resistors and inductors
// ties every node to ground, extra elements land between random nodes
// (zero capacitors among them), mutuals couple random inductor pairs,
// and each voltage source drives a node of its own that reaches the
// chain only through a resistor, so no loop of sources and inductors
// forms.
func randomACDeck(rng *rand.Rand) *circuit.Circuit {
	ckt := circuit.New("random")
	nodes := 2 + rng.Intn(7)
	node := func(k int) string {
		if k < 0 {
			return "0"
		}
		return fmt.Sprintf("n%d", k)
	}
	logU := func(lo, hi float64) float64 {
		return lo * math.Pow(hi/lo, rng.Float64())
	}
	var inds []string
	addL := func(a, b string) {
		name := fmt.Sprintf("l%d", len(inds))
		ckt.AddL(name, a, b, logU(1e-11, 1e-8))
		inds = append(inds, name)
	}
	elems := 0
	for k := 0; k < nodes; k++ {
		a, b := node(k), node(k-1-rng.Intn(k+1))
		if rng.Intn(3) == 0 {
			// A chain inductor gets a series resistor so no inductor loop
			// shorts out at ω = 0.
			mid := fmt.Sprintf("m%d", k)
			ckt.AddR(fmt.Sprintf("r%d", elems), a, mid, logU(1e-3, 1e3))
			addL(mid, b)
		} else {
			ckt.AddR(fmt.Sprintf("r%d", elems), a, b, logU(1e-3, 1e3))
		}
		elems++
	}
	for extra := rng.Intn(3 * nodes); extra > 0; extra-- {
		a, b := node(rng.Intn(nodes)), node(rng.Intn(nodes+1)-1)
		if a == b {
			continue
		}
		elems++
		switch rng.Intn(3) {
		case 0:
			ckt.AddR(fmt.Sprintf("r%d", elems), a, b, logU(1e-3, 1e3))
		case 1:
			c := logU(1e-15, 1e-9)
			if rng.Intn(5) == 0 {
				c = 0
			}
			ckt.AddC(fmt.Sprintf("c%d", elems), a, b, c)
		default:
			mid := fmt.Sprintf("m%d", elems)
			ckt.AddR(fmt.Sprintf("r%d", elems), a, mid, logU(1e-3, 1e3))
			addL(mid, b)
		}
	}
	for k := rng.Intn(3); len(inds) > 1 && k > 0; k-- {
		a, b := rng.Intn(len(inds)), rng.Intn(len(inds))
		if a != b {
			ckt.AddMutual(fmt.Sprintf("k%d", k), inds[a], inds[b], 0.05+0.4*rng.Float64())
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		src := fmt.Sprintf("s%d", k)
		ckt.AddV(fmt.Sprintf("v%d", k), src, "0", circuit.DC(0))
		ckt.AddR(fmt.Sprintf("rs%d", k), src, node(rng.Intn(nodes)), logU(1e-2, 1e2))
	}
	return ckt
}
