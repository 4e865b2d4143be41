package spice

import (
	"runtime"
	"testing"

	"ssnkit/internal/circuit"
	"ssnkit/internal/linalg"
	"ssnkit/internal/pkgmodel"
)

// TestTranSparseFootprint runs the transient engine at its natural sparse
// size: an 8x8 PGA mesh (360 unknowns) with a current injection, on the
// default threshold. It must agree with the dense backend forced on, and
// compiling the engine plus one operating point must allocate in
// proportion to the stamp pattern and the factor's fill — not to the n²
// entries of a dense matrix, which alone would be 16·n² bytes for a base
// and a working copy.
func TestTranSparseFootprint(t *testing.T) {
	grid := pkgmodel.DefaultPDN(pkgmodel.PGA, 8, 8, 4)
	ckt, _, err := grid.Build()
	if err != nil {
		t.Fatal(err)
	}
	ckt.AddI("iload", grid.NodeName(27), "0", circuit.Ramp{V0: 0, V1: 0.5, Delay: 20e-12, Rise: 0.3e-9})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, err := New(ckt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OperatingPoint(0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := eng.nUnknown
	sp, ok := eng.solver.(*linalg.SparseLU[float64])
	if n < sparseThreshold || !ok {
		t.Fatalf("n = %d, solver %T: want the sparse backend", n, eng.solver)
	}
	// 192 bytes per stamp or stored L+U entry covers the stamp list, its
	// pattern and slots, the factor and the buffers' growth.
	bytes, limit := after.TotalAlloc-before.TotalAlloc, uint64(192*(len(eng.stamps)+sp.Fill()))
	t.Logf("n = %d: %d stamps, fill %d, %d bytes (cap %d, 16·n² = %d)", n, len(eng.stamps), sp.Fill(), bytes, limit, 16*n*n)
	if bytes > limit {
		t.Errorf("New plus OperatingPoint allocated %d bytes, want at most %d", bytes, limit)
	}

	// The two backends round differently, and the difference accumulates
	// in the reactive state step by step: over these 20 steps it reaches
	// 4.7e-13 V of a 0.26 V swing, inside goldenTol, but over 100 steps
	// (1 ns) 1.8e-11 V of a 1.7 V swing.
	spec := circuit.TranSpec{Step: 10e-12, Stop: 0.2e-9}
	sparse, err := eng.Transient(spec)
	if err != nil {
		t.Fatal(err)
	}
	orig := sparseThreshold
	defer func() { sparseThreshold = orig }()
	sparseThreshold = n + 1
	dense, err := New(ckt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dense.solver.(*linalg.DenseLU[float64]); !ok {
		t.Fatalf("threshold %d: solver %T, want the dense backend", sparseThreshold, dense.solver)
	}
	want, err := dense.Transient(spec)
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, "pga 8x8", want, sparse)
}
