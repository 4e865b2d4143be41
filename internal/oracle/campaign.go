package oracle

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"ssnkit/internal/par"
	"ssnkit/internal/spice"
	"ssnkit/internal/ssn"
)

// Config parameterizes a differential-verification campaign.
type Config struct {
	Points  int           // design points to check (default 500)
	Seed    int64         // generator seed; same seed => same points, any worker count
	Workers int           // concurrent checkers (default GOMAXPROCS)
	Opts    spice.Options // transient-engine options (zero value = defaults)

	// ReproDir, when non-empty, receives a shrunk repro for each
	// disagreement (capped at maxRepros per run).
	ReproDir string
}

// maxRepros caps how many disagreements one campaign run shrinks and dumps;
// past the first few, more dumps are noise, and shrinking is expensive.
const maxRepros = 8

// verdict is the part of every oracle's result the campaign reads: where
// the point sits in its campaign and how its check came out.
type verdict struct {
	Index   int    `json:"index,omitempty"` // campaign position, when applicable
	Pass    bool   `json:"pass"`
	Skipped bool   `json:"skipped,omitempty"` // outside the reference's domain
	Detail  string `json:"detail,omitempty"`  // what failed, or why the point was skipped
	Err     error  `json:"-"`                 // infrastructure failure (build/convergence), not a disagreement
}

func (v *verdict) base() *verdict { return v }

// fails reports a genuine disagreement: neither an error nor a skip.
func (v verdict) fails() bool { return v.Err == nil && !v.Skipped && !v.Pass }

// status is the leading word of every result line.
func (v verdict) status() string {
	switch {
	case v.Err != nil:
		return "ERROR " + v.Err.Error()
	case v.Skipped:
		return "SKIP " + v.Detail
	case v.Pass:
		return "PASS"
	case v.Detail != "":
		return "FAIL " + v.Detail
	}
	return "FAIL"
}

// outcome is the constraint on an oracle's result type R: R embeds a
// verdict, and tally names the class a checked point counts under and its
// relative error against the band.
type outcome[R any] interface {
	*R
	base() *verdict
	tally() (class string, rel float64)
}

// campaign is one oracle's plug-ins to the shared campaign: its seeded
// generator, its per-worker checker and its shrink schedule.
type campaign[P, R any, PR outcome[R]] struct {
	title    string // report header
	prefix   string // repro basename prefix
	generate func(seed int64, index int) (P, bool)
	checker  func() func(P) R // one per worker, which may keep reusable state
	schedule func(P) []edit[P]
	deck     func(dir, name string, pt P) error // optional companion of the JSON repro
}

// run executes a seeded campaign: point i is always generate(Seed, i),
// whatever the worker count, each point is checked, the outcomes are
// tallied in index order, and then up to maxRepros disagreements are
// shrunk and dumped to ReproDir.
func (c campaign[P, R, PR]) run(ctx context.Context, cfg Config) (*report[R, PR], error) {
	if cfg.Points <= 0 {
		cfg.Points = 500
	}
	pts := make([]P, cfg.Points)
	results := make([]R, cfg.Points)
	par.For(cfg.Points, cfg.Workers, func(int) func(int) {
		check := c.checker()
		return func(i int) {
			if ctx.Err() != nil {
				return
			}
			// Any worker may claim point i; determinism lives in the
			// generator.
			pt, ok := c.generate(cfg.Seed, i)
			if ok {
				pts[i], results[i] = pt, check(pt)
			}
			v := PR(&results[i]).base()
			v.Index = i
			if !ok {
				v.Err = fmt.Errorf("oracle: %s generator exhausted retries at index %d", c.title, i)
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &report[R, PR]{
		title:      c.title,
		Points:     cfg.Points,
		CaseCounts: map[string]int{},
		WorstRel:   map[string]float64{},
		Results:    results,
	}
	for i := range results {
		v := PR(&results[i]).base()
		switch {
		case v.Err != nil:
			rep.Errored++
			rep.Failures = append(rep.Failures, results[i])
			continue
		case v.Skipped:
			rep.Skipped++
			continue
		case v.Pass:
			rep.Passed++
		default:
			rep.Failed++
			rep.Failures = append(rep.Failures, results[i])
		}
		class, rel := PR(&results[i]).tally()
		rep.CaseCounts[class]++
		rep.WorstRel[class] = math.Max(rep.WorstRel[class], rel)
	}

	// Shrink and dump serially: failures are rare, shrinking re-checks,
	// and a deterministic dump order beats parallel speed here. An errored
	// point has no disagreement to shrink, so it is passed over.
	if cfg.ReproDir == "" {
		return rep, nil
	}
	for i := range rep.Failures {
		v := PR(&rep.Failures[i]).base()
		if v.Err != nil {
			continue
		}
		if len(rep.Dumped) >= maxRepros {
			break
		}
		small := c.shrink(pts[v.Index])
		name := fmt.Sprintf("%s-seed%d-%d", c.prefix, cfg.Seed, v.Index)
		if err := c.dump(cfg.ReproDir, name, small); err != nil {
			return rep, fmt.Errorf("oracle: dump repro for point %d: %w", v.Index, err)
		}
		rep.Dumped = append(rep.Dumped, name)
	}
	return rep, nil
}

// shrink reduces a failing point under the campaign's schedule, keeping a
// candidate only while it still disagrees; see shrinkBy.
func (c campaign[P, R, PR]) shrink(pt P) P {
	check := c.checker()
	fails := func(p P) bool {
		res := check(p)
		return PR(&res).base().fails()
	}
	return shrinkBy(pt, fails, c.schedule(pt))
}

// dump re-checks pt and writes its JSON repro, plus the campaign's deck
// when it has one.
func (c campaign[P, R, PR]) dump(dir, name string, pt P) error {
	if err := writeRepro(dir, name, pt, c.checker()(pt)); err != nil {
		return err
	}
	if c.deck == nil {
		return nil
	}
	return c.deck(dir, name, pt)
}

// report summarizes a campaign of any oracle.
type report[R any, PR outcome[R]] struct {
	title      string
	Points     int                // points checked
	Passed     int                // inside their tolerance band
	Failed     int                // outside the band: genuine disagreements
	Errored    int                // infrastructure errors (build/convergence), not disagreements
	Skipped    int                // outside the reference's domain, neither pass nor fail
	CaseCounts map[string]int     // passed and failed points per class (transient: Table 1 case)
	WorstRel   map[string]float64 // worst relative error per class
	Results    []R                // every point's outcome, index order
	Failures   []R                // the disagreements and errors, index order
	Dumped     []string           // repro basenames written to Config.ReproDir
}

// Report summarizes a transient campaign.
type Report = report[Result, *Result]

// OK reports whether the campaign found no disagreements and no errors.
func (r *report[R, PR]) OK() bool { return r.Failed == 0 && r.Errored == 0 }

// String renders the report. An oracle whose points have no class gets
// its worst relative error on the header line; classes get a line each.
func (r *report[R, PR]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d points, %d pass, %d fail, %d error",
		r.title, r.Points, r.Passed, r.Failed, r.Errored)
	if r.Skipped > 0 {
		fmt.Fprintf(&b, ", %d skip", r.Skipped)
	}
	if worst, ok := r.WorstRel[""]; ok {
		fmt.Fprintf(&b, ", worst rel %.3g", worst)
	}
	b.WriteByte('\n')
	names := make([]string, 0, len(r.CaseCounts))
	for name := range r.CaseCounts {
		if name != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %-22s %5d points, worst rel err %.3g\n",
			name, r.CaseCounts[name], r.WorstRel[name])
	}
	for i := range r.Failures {
		f := PR(&r.Failures[i])
		fmt.Fprintf(&b, "  #%d %s\n", f.base().Index, f)
	}
	for _, d := range r.Dumped {
		fmt.Fprintf(&b, "  repro: %s\n", d)
	}
	return strings.TrimRight(b.String(), "\n")
}

// transient is the closed form vs transient oracle's campaign. Each worker
// keeps one ssn.Plan as its reusable analytic evaluator (see checkWith).
func transient(opts spice.Options) campaign[DesignPoint, Result, *Result] {
	return campaign[DesignPoint, Result, *Result]{
		title:    "oracle campaign",
		prefix:   "campaign",
		generate: Generate,
		checker: func() func(DesignPoint) Result {
			var pl ssn.Plan
			return func(pt DesignPoint) Result { return checkWith(&pl, pt, opts) }
		},
		schedule: shrinkSchedule,
		deck:     writeDeck,
	}
}

// Run executes a seeded transient campaign: Points design points are
// generated deterministically from Seed (point i is always the same,
// regardless of Workers), each is checked differentially against the
// transient engine, and disagreements are shrunk to minimal repros and
// dumped to ReproDir.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	return transient(cfg.Opts).run(ctx, cfg)
}
