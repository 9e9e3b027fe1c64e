package main

import (
	"fmt"
	"io"
	"strings"

	"mcfs"
)

// hunt is one seeded-bug hunt of the verdict gate. What a hunt must
// report comes from where the defect was seeded — which target carries
// it, which operation it lives in, what the checker can observe of it —
// never from an earlier run of the checker.
type hunt struct {
	bug     string
	targets []mcfs.TargetSpec
	crash   bool
	depth   int

	wantKind   string       // discrepancy kind the defect must surface as
	wantTarget string       // the seeded target, named in the report
	wantOp     *mcfs.OpKind // operation the defect lives in (nil: any)
	wantDetail string       // what of the state differs ("" for any)
}

func opKind(k mcfs.OpKind) *mcfs.OpKind { return &k }

var hunts = []hunt{
	{
		bug:      mcfs.BugTruncateNoZero,
		targets:  []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "verifs1", Bugs: []string{mcfs.BugTruncateNoZero}}},
		depth:    3,
		wantKind: "abstract-state", wantTarget: "verifs1#1", wantOp: opKind(mcfs.OpTruncate), wantDetail: "content md5",
	},
	{
		bug:      mcfs.BugNoCacheInvalidate,
		targets:  []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "verifs1", Bugs: []string{mcfs.BugNoCacheInvalidate}}},
		depth:    3,
		wantKind: "errno", wantTarget: "verifs1#1",
	},
	{
		bug:      mcfs.BugWriteHoleNoZero,
		targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2", Bugs: []string{mcfs.BugWriteHoleNoZero}}},
		depth:    3,
		wantKind: "abstract-state", wantTarget: "verifs2#1", wantOp: opKind(mcfs.OpWriteFile), wantDetail: "content md5",
	},
	{
		bug:      mcfs.BugSizeUpdateOnOverflow,
		targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2", Bugs: []string{mcfs.BugSizeUpdateOnOverflow}}},
		depth:    3,
		wantKind: "abstract-state", wantTarget: "verifs2#1", wantOp: opKind(mcfs.OpWriteFile), wantDetail: "size",
	},
	{
		bug:      mcfs.BugJournalCommitFirst,
		targets:  []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4", Bugs: []string{mcfs.BugJournalCommitFirst}}},
		crash:    true,
		depth:    1,
		wantKind: "crash-consistency", wantTarget: "ext4#1",
	},
}

// run hunts the bug in the engine's unshuffled order (seed 0) and
// returns how many operations it took, or why the verdict is wrong.
func (h hunt) run() (int64, error) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: h.targets, MaxDepth: h.depth, MaxOps: 200000, CrashExploration: h.crash,
	})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		return 0, res.Err
	}
	if res.Bug == nil {
		return 0, fmt.Errorf("not found in %d ops", res.Ops)
	}
	d, trail := res.Bug.Discrepancy, res.Bug.Trail
	details := strings.Join(d.Details, "; ")
	switch {
	case d.Kind != h.wantKind:
		return 0, fmt.Errorf("reported as %q, want %q (%s)", d.Kind, h.wantKind, details)
	case !strings.Contains(details, h.wantTarget):
		return 0, fmt.Errorf("report does not name the seeded target %s: %s", h.wantTarget, details)
	case !strings.Contains(details, h.wantDetail):
		return 0, fmt.Errorf("report does not mention %q: %s", h.wantDetail, details)
	case len(trail) == 0:
		return 0, fmt.Errorf("report carries no trail")
	case h.wantOp != nil && trail[len(trail)-1].Kind != *h.wantOp:
		return 0, fmt.Errorf("exposed by %s, want a %s", trail[len(trail)-1], *h.wantOp)
	case h.crash && (res.Bug.Crash == nil || res.Bug.Crash.TargetName != h.wantTarget):
		return 0, fmt.Errorf("crash bug not pinned to %s: %+v", h.wantTarget, res.Bug.Crash)
	}
	return res.Bug.OpsExecuted, nil
}

// verdictGate hunts every seeded bug; timing anything is pointless if
// the checker no longer reaches the right verdicts.
func verdictGate(out io.Writer) error {
	for _, h := range hunts {
		n, err := h.run()
		if err != nil {
			return fmt.Errorf("verdict gate: %s: %w", h.bug, err)
		}
		fmt.Fprintf(out, "gate %-24s found ops_to_find=%d count\n", h.bug, n)
	}
	return nil
}
