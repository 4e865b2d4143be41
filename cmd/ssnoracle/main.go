// Command ssnoracle runs the differential-verification campaign from
// internal/oracle: seeded random design points are evaluated with the
// Table 1 closed forms and re-simulated at transistor level with the exact
// ASDM device, and any disagreement outside the per-case tolerance band is
// shrunk to a minimal repro and dumped.
//
// Usage:
//
//	ssnoracle                         # 500 points, seed 1
//	ssnoracle -points 5000 -seed 7 -workers 8
//	ssnoracle -repros testdata/repros # dump shrunk disagreements here
//	ssnoracle -v                      # per-point log, not just the report
//
// Exit status is nonzero if any point disagrees (or errors), so the
// command slots directly into CI.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"ssnkit/internal/oracle"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssnoracle:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssnoracle", flag.ContinueOnError)
	fs.SetOutput(out)
	points := fs.Int("points", 500, "design points to check")
	seed := fs.Int64("seed", 1, "campaign seed (same seed = same points)")
	workers := fs.Int("workers", 0, "concurrent checkers (0 = GOMAXPROCS)")
	repros := fs.String("repros", "", "directory for shrunk .cir/.json repro dumps")
	verbose := fs.Bool("v", false, "log every checked point")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := oracle.Config{
		Points:   *points,
		Seed:     *seed,
		Workers:  *workers,
		ReproDir: *repros,
	}
	rep, err := oracle.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if *verbose {
		for _, res := range rep.Results {
			fmt.Fprintf(out, "#%d %s\n", res.Index, res)
		}
	}
	fmt.Fprintln(out, rep)
	if !rep.OK() {
		return fmt.Errorf("%d disagreement(s), %d error(s)", rep.Failed, rep.Errored)
	}
	return nil
}
