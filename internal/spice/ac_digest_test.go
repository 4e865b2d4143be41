package spice

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

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
