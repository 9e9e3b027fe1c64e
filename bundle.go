// Bug-repro bundles: a found discrepancy dumped as a standalone
// directory a file-system developer can replay and shrink without the
// run that produced it. Spin's contract is that every verification
// failure leaves a replayable .trail artifact; a bundle is that idea
// grown up — the trail plus everything needed to re-execute it (target
// configuration), understand it (journal tail, metrics, coverage), and
// act on it (a delta-debugged minimal trail).
//
// Layout (one directory per bug):
//
//	config.json    — the run's Options (targets, depth, seed, ...; attachments omitted)
//	bug.json       — discrepancy kind/op/details + the full trail
//	journal.jsonl  — the run's flight-recorder journal (when available)
//	metrics.json   — obs.Snapshot of the run's instruments (optional)
//	coverage.json  — per-(op, errno) outcome matrix (optional)
//	trail.min.json — delta-debugged minimal trail (written by Shrink)
package mcfs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mcfs/internal/mc"
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
)

// Bundle file names.
const (
	BundleConfigFile   = "config.json"
	BundleBugFile      = "bug.json"
	BundleJournalFile  = "journal.jsonl"
	BundleMetricsFile  = "metrics.json"
	BundleCoverageFile = "coverage.json"
	BundleMinTrailFile = "trail.min.json"
)

// Bundle is a loaded bug-repro bundle.
type Bundle struct {
	// Dir is the directory the bundle was read from.
	Dir string
	// Config is the run spec: NewSession(Config) rebuilds equivalent
	// fresh targets.
	Config Options
	// Bug is the recorded discrepancy and trail.
	Bug journal.BugRecord
	// Trail is Bug.Trail decoded to executable operations.
	Trail []Op
	// MinTrail is the minimized trail, nil when Shrink has not run.
	MinTrail []Op
}

// WriteBundle dumps a bug-repro bundle for res into dir, creating it.
// journalSrc, when non-empty, is a journal file to copy in; metrics,
// when non-nil, is the run's instrument snapshot. A result without a
// bug — a run that died on the memory model, say — still gets a
// partial bundle (config, journal, metrics, coverage; no bug.json) so
// the evidence of the aborted run survives.
func WriteBundle(dir string, opts Options, res Result, journalSrc string, metrics *obs.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mcfs: bundle: %w", err)
	}
	if err := writeJSON(filepath.Join(dir, BundleConfigFile), opts); err != nil {
		return err
	}
	if res.Bug != nil {
		bug := journal.BugRecord{
			Kind:        res.Bug.Discrepancy.Kind,
			Op:          res.Bug.Discrepancy.Op,
			Details:     res.Bug.Discrepancy.Details,
			Trail:       journal.EncodeTrail(res.Bug.Trail),
			OpsExecuted: res.Bug.OpsExecuted,
			Crash:       res.Bug.Crash,
		}
		if err := writeJSON(filepath.Join(dir, BundleBugFile), bug); err != nil {
			return err
		}
	}
	if len(res.Coverage.ByOp) > 0 {
		if err := writeJSON(filepath.Join(dir, BundleCoverageFile), res.Coverage); err != nil {
			return err
		}
	}
	if metrics != nil {
		if err := writeJSON(filepath.Join(dir, BundleMetricsFile), metrics); err != nil {
			return err
		}
	}
	if journalSrc != "" {
		if err := copyFile(journalSrc, filepath.Join(dir, BundleJournalFile)); err != nil {
			return err
		}
	}
	return nil
}

// ReadBundle loads a bundle directory.
func ReadBundle(dir string) (*Bundle, error) {
	b := &Bundle{Dir: dir}
	if err := readJSON(filepath.Join(dir, BundleConfigFile), &b.Config); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, BundleBugFile), &b.Bug); err != nil {
		return nil, err
	}
	trail, err := journal.DecodeTrail(b.Bug.Trail)
	if err != nil {
		return nil, fmt.Errorf("mcfs: bundle: %w", err)
	}
	b.Trail = trail
	var minRecs []journal.OpRecord
	if err := readJSON(filepath.Join(dir, BundleMinTrailFile), &minRecs); err == nil {
		if b.MinTrail, err = journal.DecodeTrail(minRecs); err != nil {
			return nil, fmt.Errorf("mcfs: bundle: minimized trail: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return b, nil
}

// JournalRecords loads the bundle's journal, nil (no error) when the
// bundle shipped without one.
func (b *Bundle) JournalRecords() ([]journal.Record, error) {
	path := filepath.Join(b.Dir, BundleJournalFile)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil, nil
	}
	return journal.Load(path)
}

// ReplayOutcome reports a bundle replay.
type ReplayOutcome struct {
	// Reproduced reports that the bundle's full trail reproduced a
	// discrepancy of the recorded kind on fresh targets; Discrepancy is
	// what the replay observed.
	Reproduced  bool
	Discrepancy *Discrepancy
	// MinReproduced reports the same for the minimized trail; nil when
	// the bundle has none.
	MinReproduced  *bool
	MinDiscrepancy *Discrepancy
}

// want returns the discrepancy-kind matcher for reproduction checks.
func (b *Bundle) want() *Discrepancy {
	return &Discrepancy{Kind: b.Bug.Kind}
}

// session builds a fresh session from the bundle's config.
func (b *Bundle) session() (*Session, error) {
	s, err := NewSession(b.Config)
	if err != nil {
		return nil, fmt.Errorf("mcfs: bundle: rebuilding targets: %w", err)
	}
	return s, nil
}

// Replay re-executes the bundle's trail (and minimized trail, when
// present) against fresh targets and reports whether the recorded
// discrepancy reproduces.
func (b *Bundle) Replay() (*ReplayOutcome, error) {
	verify := func(trail []Op) (*Discrepancy, bool, error) {
		s, err := b.session()
		if err != nil {
			return nil, false, err
		}
		defer s.Close()
		return s.VerifyCrashTrail(trail, b.Bug.Crash, b.want())
	}
	out := &ReplayOutcome{}
	var err error
	if out.Discrepancy, out.Reproduced, err = verify(b.Trail); err != nil {
		return nil, err
	}
	if b.MinTrail != nil {
		d, same, err := verify(b.MinTrail)
		if err != nil {
			return nil, err
		}
		out.MinDiscrepancy, out.MinReproduced = d, &same
	}
	return out, nil
}

// Shrink delta-debugs the bundle's trail to a locally-minimal repro,
// writes it to trail.min.json, and returns it with the minimization
// stats. Each candidate replays against fresh targets built from the
// bundle's config.
func (b *Bundle) Shrink() ([]Op, MinimizeStats, error) {
	var sessions []*Session
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	factory := func() (mc.Config, func(), error) {
		s, err := b.session()
		if err != nil {
			return mc.Config{}, nil, err
		}
		sessions = append(sessions, s)
		return s.cfg, s.Close, nil
	}
	min, stats, err := mc.Minimize(factory, b.Trail, b.want(), mc.MinimizeOptions{Crash: b.Bug.Crash})
	if err != nil {
		return nil, stats, err
	}
	if err := writeJSON(filepath.Join(b.Dir, BundleMinTrailFile), journal.EncodeTrail(min)); err != nil {
		return nil, stats, err
	}
	b.MinTrail = min
	return min, stats, nil
}

// ReplayBundle loads the bundle at dir and replays it.
func ReplayBundle(dir string) (*ReplayOutcome, error) {
	b, err := ReadBundle(dir)
	if err != nil {
		return nil, err
	}
	return b.Replay()
}

// ShrinkBundle loads the bundle at dir, minimizes its trail, and writes
// trail.min.json back into the bundle.
func ShrinkBundle(dir string) ([]Op, MinimizeStats, error) {
	b, err := ReadBundle(dir)
	if err != nil {
		return nil, MinimizeStats{}, err
	}
	return b.Shrink()
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mcfs: bundle: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("mcfs: bundle: encoding %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("mcfs: bundle: %w", err)
	}
	return nil
}

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return err // callers distinguish optional files
		}
		return fmt.Errorf("mcfs: bundle: %w", err)
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("mcfs: bundle: decoding %s: %w", filepath.Base(path), err)
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("mcfs: bundle: %w", err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return fmt.Errorf("mcfs: bundle: %w", err)
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("mcfs: bundle: copying journal: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("mcfs: bundle: %w", err)
	}
	return nil
}
