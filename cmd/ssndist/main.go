// Command ssndist runs a distributed design-space sweep: the grid is cut
// into deterministic shards, shards fan out to ssnserve worker replicas
// (POST /v1/shard) with retry and failover, completed shards are
// checkpointed to disk, and the merged NDJSON stream — byte-identical to a
// single-process sweep of the same spec — goes to stdout or -o.
//
// Usage:
//
//	ssndist -axis n=1:512:512 -axis l=1n:12n:64            # in-process
//	ssndist -axis n=1:4096:4096 \
//	    -workers http://10.0.0.2:8350,http://10.0.0.3:8350 \
//	    -checkpoint /tmp/ssn.ckpt -o sweep.ndjson
//	ssndist ... -checkpoint /tmp/ssn.ckpt -resume           # after a crash
//
// A killed coordinator restarted with -resume replays committed shards from
// the checkpoint and recomputes only the remainder; the output bytes are
// identical either way. Fixed parameters mirror ssnsweep (-process,
// -corner, -package, -pads, -n, -size, -tr, -l, -c).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ssnkit/internal/cliflags"
	"ssnkit/internal/device"
	"ssnkit/internal/dist"
	"ssnkit/internal/dist/store"
	"ssnkit/internal/serve"
	"ssnkit/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ssndist:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ssndist", flag.ContinueOnError)
	var axes []dist.Axis
	fs.Func("axis", "swept axis name=from:to:points[:log] (repeatable; n, l, c, slope, tr, size)",
		func(s string) error {
			a, err := cliflags.ParseAxis(s)
			if err != nil {
				return err
			}
			axes = append(axes, dist.Axis(a))
			return nil
		})
	var (
		workersStr  = fs.String("workers", "", "comma-separated ssnserve replica URLs (empty = in-process)")
		checkpoint  = fs.String("checkpoint", "", "checkpoint store directory (empty = no checkpointing)")
		resume      = fs.Bool("resume", false, "replay an existing checkpoint instead of starting fresh")
		shardPoints = fs.Int("shard-points", 0, "grid points per shard (0 = 4096)")
		timeout     = fs.Duration("timeout", 0, "per-shard HTTP attempt budget (0 = 120s)")
		retries     = fs.Int("retries", 0, "attempt budget per shard (0 = max(4, 2x workers))")
		inflight    = fs.Int("inflight", 0, "concurrent shards per replica (0 = 2; in-process: GOMAXPROCS)")
		apiKey      = fs.String("api-key", "", "X-API-Key sent to replicas (per-client quotas)")
		outPath     = fs.String("o", "", "write the merged NDJSON here (default stdout)")
		quiet       = fs.Bool("q", false, "suppress the progress ticker on stderr")
	)
	fixed := cliflags.Register(fs, 16)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if len(axes) == 0 {
		return fmt.Errorf("need at least one -axis")
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	r, err := fixed.Resolve()
	if err != nil {
		return err
	}

	// Resolve the base device once; a size axis re-extracts per width
	// through the same LRU the HTTP service uses.
	cache := serve.NewExtractCache(64, nil)
	espec := device.ExtractSpec{Process: fixed.Process, Corner: r.Corner, Size: r.Size}
	baseDev, _, err := cache.Get(espec)
	if err != nil {
		return err
	}
	spec := dist.SweepSpec{
		Base: dist.BaseParams{
			N: r.N, K: baseDev.K, V0: baseDev.V0, A: baseDev.A,
			Vdd: r.Proc.Vdd, Slope: r.Proc.Vdd / r.TR, L: r.Gnd.L, C: r.Gnd.C,
		},
		Axes:        axes,
		ShardPoints: *shardPoints,
	}
	for _, a := range axes {
		if a.Name == sweep.AxisSize {
			spec.Extract = &dist.Extract{Process: fixed.Process, Corner: fixed.Corner}
		}
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	var workers []string
	if *workersStr != "" {
		for _, u := range strings.Split(*workersStr, ",") {
			if u = strings.TrimSuffix(strings.TrimSpace(u), "/"); u != "" {
				workers = append(workers, u)
			}
		}
	}

	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		w = bw
	}

	// SIGINT/SIGTERM cancel the run; with -checkpoint the committed shards
	// survive and a -resume rerun picks up from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := dist.Options{
		Workers:        workers,
		Checkpoint:     *checkpoint,
		Resume:         *resume,
		RequestTimeout: *timeout,
		Retries:        *retries,
		InFlight:       *inflight,
		APIKey:         *apiKey,
		Eval: dist.EvalConfig{Extract: func(s device.ExtractSpec) (device.ASDM, error) {
			m, _, err := cache.Get(s)
			return m, err
		}},
	}
	if !*quiet {
		last := time.Now()
		opts.Progress = func(p dist.Progress) {
			if now := time.Now(); p.Done || now.Sub(last) >= time.Second {
				last = now
				fmt.Fprintf(errw, "ssndist: %d/%d shards (%d reused), %d/%d points, %.0f points/s, %d retries\n",
					p.ShardsDone, p.ShardsTotal, p.ShardsReused,
					p.PointsDone, p.PointsTotal, p.PointsPerSec, p.Retries)
			}
		}
	}

	summary, err := dist.Run(ctx, spec, opts, w)
	if err != nil {
		if *checkpoint != "" && !errors.Is(err, store.ErrFingerprint) {
			fmt.Fprintf(errw, "ssndist: aborted; rerun with -resume to continue from the checkpoint\n")
		}
		return err
	}
	if !*quiet {
		fmt.Fprintf(errw, "ssndist: done: %d points in %d shards (%d reused, %d retries) in %s\n",
			summary.Points, summary.Shards, summary.Reused, summary.Retries,
			summary.Duration.Round(time.Millisecond))
	}
	return nil
}
