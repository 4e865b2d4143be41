package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark was calibrated on is a 2-vCPU VM on a machine
// shared with other tenants. How fast its CPU runs changes within
// milliseconds and drifts over seconds to minutes, by up to 2x, while the
// VM sees no steal time: a fixed loop on an otherwise idle vCPU took
// 2.2-4.6 ms from one 4 ms iteration to the next. Raw times from runs a
// few minutes apart then differ by more than any change in the code.
//
// So every round also times a fixed reference loop, on the same CPU as
// the caller and the child and in between their requests, for about
// refShare of the time the requests are in flight. The round's times are
// scaled by refNominal over the loop's mean time in that round: they
// become times on a CPU that runs the loop in refNominal. A change in the
// code under test leaves the loop alone and moves the scaled times as it
// moves the raw ones; a slow stretch of the host slows the loop and the
// requests alike and cancels.

// refShare is the reference loop's share of a round's request time.
const refShare = 0.05

// refNominal is the reference loop's time on a quiet vCPU of the
// calibration host (the lower end of what it measured), the CPU speed
// scaled times are quoted at.
const refNominal = 30 * time.Microsecond

// refLoop is the fixed reference work: sorting, shortest float
// formatting and exp, the kinds of work the workloads spend their time on
// (JSON encoding, closed-form kernels, factorizations). It allocates
// nothing, so the caller's garbage collector stays out of it.
type refLoop struct {
	vals, sorted [256]float64
	out          []byte
	sink         float64
	n            int           // loops timed
	total        time.Duration // their total time
}

func newRefLoop() *refLoop {
	r := &refLoop{out: make([]byte, 0, 8<<10)}
	x := uint64(1)
	for i := range r.vals {
		x = x*6364136223846793005 + 1442695040888963407
		r.vals[i] = float64(x>>11) / (1 << 53)
	}
	return r
}

// run times one pass of the loop.
func (r *refLoop) run() {
	start := time.Now()
	r.sorted = r.vals
	sort.Float64s(r.sorted[:])
	r.out = r.out[:0]
	s := 0.0
	for _, v := range r.sorted {
		r.out = strconv.AppendFloat(r.out, v, 'g', -1, 64)
		s += math.Exp(-v)
	}
	r.sink += s + float64(len(r.out))
	r.total += time.Since(start)
	r.n++
}

// keepUp runs the loop until it has taken refShare of busy.
func (r *refLoop) keepUp(busy time.Duration) {
	for r.total < time.Duration(refShare*float64(busy)) || r.n == 0 {
		r.run()
	}
}

// mean is the loop's mean time.
func (r *refLoop) mean() time.Duration { return r.total / time.Duration(r.n) }

// speed is the factor that scales a time measured alongside the loop to
// a CPU that runs the loop in refNominal.
func (r *refLoop) speed() float64 { return float64(refNominal) / float64(r.mean()) }
