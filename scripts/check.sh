#!/bin/sh
# check.sh — the repo's verification gate, runnable locally or in CI.
#
# Encodes ROADMAP.md's tier-1 verify plus the observability gate:
#   1. go build ./...                               (everything compiles)
#   2. go test ./...                                (tier-1 test suite)
#   3. go vet ./... and gofmt -l .                  (static checks; gofmt
#                                                    must list no file)
#   4. go test -race internal/mc + internal/obs     (swarm + hub + event
#         (includes internal/obs/stream)             stream under the
#         + internal/tracker + internal/blockdev     race detector; the
#         + internal/memmodel + internal/kernel      trackers and the
#         + internal/abstraction + internal/checker  media's undo frames
#         + internal/vfs                             under their locks; a
#      plus: the swarm tests at -cpu 1,4             model reading a set
#      and the swarm journal 400 times at -cpu 4     its peers write; the
#                                                    path walk every swarm
#                                                    worker runs; a swarm
#                                                    test that assumes
#                                                    concurrency fails at
#                                                    one CPU; the bug
#                                                    worker and the
#                                                    journal's first bug
#                                                    must agree however
#                                                    two bugs race)
#   5. bench smoke: every benchmark runs once       (catches bit-rotted
#                                                    benchmarks; includes
#                                                    the nil-vs-with hub,
#                                                    stream and journal
#                                                    pairs, the swarm
#                                                    shared-vs-
#                                                    independent pairs,
#                                                    the per-tracker
#                                                    checkpoint+restore
#                                                    cycle, the FUSE
#                                                    round trip, name
#                                                    resolution and the
#                                                    abstraction walk,
#                                                    cold and through a
#                                                    warm content memo,
#                                                    an extfs remount
#                                                    through a
#                                                    MountCache, an
#                                                    extfs lookup and
#                                                    listing, an extfs
#                                                    fsck through its
#                                                    spare, a
#                                                    jffs2sim mount
#                                                    through a ScanCache
#                                                    and an unmount->
#                                                    mount cycle into
#                                                    its spare table,
#                                                    copied from the
#                                                    memo, or replayed
#                                                    and then copied,
#                                                    and the crash
#                                                    oracle's recovery
#                                                    session,
#                                                    BenchmarkCrashProbe,
#                                                    a device frame
#                                                    cycle at 256 KiB and
#                                                    64 MiB, and each
#                                                    VeriFS's nested
#                                                    checkpoint cycle;
#                                                    and the nil
#                                                    hub's span calls
#                                                    must inline)
#   6. replay-determinism smoke: a seeded-bug run   (flight recorder end
#      writes a repro bundle, mcfs replay must       to end: journal ->
#      reproduce it, mcfs shrink must minimize it;   bundle -> replay ->
#      then the same for a three-target -majority    shrink; run and
#      run, whose bug only the shared step names,    replay are one step;
#      and a -swarm -share-visited run whose bundle  a swarm bundle names
#      must carry the bug worker's seed and replay   the worker to rebuild)
#   7. go test -race ./internal/fault/...           (fault plane, extfs,
#         ./internal/fs/extfs/...                    jffs2sim, both VeriFS
#         ./internal/fs/jffs2sim/...                 versions and FUSE under
#         ./internal/fs/verifs1/...                  the race detector: a
#         ./internal/fs/verifs2/...                  mount reads flash the
#         ./internal/fuse/...                        MTD lends, outside its
#                                                    lock; concurrent fscks
#                                                    share one spare; a
#                                                    VeriFS snapshot reuses
#                                                    released tables and a
#                                                    restore's copies through
#                                                    a weak spare)
#   8. crash-exploration smoke: the seeded ext4     (fault injection end
#      journal-ordering bug is found only under      to end: crash points
#      -crash, its bundle replays and shrinks, the   -> oracle -> verdict
#      -crash-heatmap artifact pinpoints it with a   heatmap -> bundle ->
#      "bug" cell, and the same run without -crash   replay -> shrink)
#      stays clean; and the one pairing that mixes
#      a block device with flash (ext4 vs jffs2)
#      stays clean at its pinned crash-point count
#   9. mcfslint ./...                                (domain static
#      plus: -list and -json must name the            analysis: checkpoint
#      full eight-analyzer suite, so a registry       leaks, map-order
#      regression can't silently drop the locks       nondeterminism, wall
#      analyzer, the atomicplain type rule or         time, dropped errnos,
#      the structure table                            nil-obs safety, lock
#                                                    regions, order and
#                                                    guarded fields, sync/atomic
#                                                    function calls, and the
#                                                    module's structure: one
#                                                    typed row per invariant
#                                                    this script used to grep
#                                                    for, in internal/lint/
#                                                    structure.go)
#  10. bounded-memory smoke: a run under a tiny      (the memory governor
#      -mem-budget must complete (exit 0) at          degrades fidelity
#      reduced visited fidelity instead of dying      instead of dying
#      out of memory                                  mid-run)
#  11. fuzz smokes: a 10 s FuzzJoinPath smoke,      (path parsing matches
#      a 10 s FuzzJournalRead smoke, a 10 s           its split-and-join
#      FuzzMountAndFsck smoke, a 10 s                 reference; a journal
#      FuzzDirBlock smoke, 10 s FuzzMount             decodes to in-bounds
#      smokes for jffs2sim and xfssim, a 10 s         ops or an error; a
#      FuzzReadBundle smoke, a 10 s                   mount and an fsck of
#      FuzzUndoFrames smoke, 10 s                     any extfs bytes return
#      FuzzCheckpointPool smokes for verifs1          an error or problems;
#      and verifs2 and a 10 s FuzzTouchedSet          an extfs directory
#      smoke                                          block is scanned and
#                                                    edited in place as its
#                                                    parse and re-encode
#                                                    would; a jffs2 or xfs
#                                                    mount of any bytes
#                                                    returns errors; any bundle
#                                                    reads to an error or a
#                                                    bundle; any op sequence
#                                                    over undo frames leaves
#                                                    each medium holding its
#                                                    frames' images; any op,
#                                                    checkpoint, restore and
#                                                    discard sequence leaves
#                                                    a VeriFS and each of
#                                                    its snapshots equal to
#                                                    a deep-copy twin; any
#                                                    write, window and log
#                                                    sequence leaves the
#                                                    touched set the merge
#                                                    of every persisted
#                                                    write's range)
#  12. examples smoke: every examples/* program      (the library surface
#      runs to exit 0 under a 60 s timeout            the examples show
#                                                    keeps working, not
#                                                    just compiling)
#  13. live-surface smoke: a 2-worker shared swarm   (the live views run,
#      with -progress 1ms -stall-ops 64 -events       not just compile:
#      exits 0, stderr holds progress w1:, w2: and    -progress renders the
#      swarm: lines, and every line of the NDJSON     worker table, and the
#      parses, with one worker-drain per worker       sink loses no worker)
#
# The structural guards (one-golden, event-seam, op-path, one-walk,
# image-copy, one-lock, parse, scan, one-hub, one-log, one-configuration:
# what stays deleted, and where a goroutine, a channel, a whole-image
# copy, a cache map, a lock or a state walk may appear) are not steps
# here: they are rows of mcfslint's structure analyzer, which step 2
# runs through internal/lint's TestModuleIsClean and step 9 runs again.
#
# Usage: scripts/check.sh   (from the repo root or anywhere inside it)
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go vet ./... and gofmt -l ."
go vet ./...
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "$unformatted"
	echo "FAIL: gofmt -l lists the files above"; exit 1; }

echo "==> go test -race ./internal/mc/... ./internal/memmodel/... ./internal/obs/... (incl. internal/obs/stream) ./internal/tracker/... ./internal/blockdev/... ./internal/kernel/... ./internal/abstraction/... ./internal/checker/... ./internal/vfs/..."
go test -race ./internal/mc/... ./internal/memmodel/... ./internal/obs/... ./internal/tracker/... ./internal/blockdev/... \
	./internal/kernel/... ./internal/abstraction/... ./internal/checker/... ./internal/vfs/...
echo "==> go test -cpu 1,4 -run 'Swarm|Panic' ./internal/mc"
go test -cpu 1,4 -run 'Swarm|Panic' ./internal/mc
echo "==> go test -cpu 4 -count 400 -run 'TestSwarmJournaling\$' ./internal/mc"
go test -cpu 4 -count 400 -run 'TestSwarmJournaling$' ./internal/mc

echo "==> bench smoke (one iteration per benchmark)"
go test -bench . -benchtime 1x -run '^$' ./internal/mc/... ./internal/tracker/... ./internal/fuse/... \
	./internal/kernel/... ./internal/abstraction/... ./internal/blockdev/... \
	./internal/fs/verifs1/... ./internal/fs/verifs2/...
# A nil hub costs an instrumented layer no call: the span calls inline.
inl=$(go build -gcflags=-m ./internal/obs 2>&1)
for f in '(\*Hub).StartTimed' 'SpanHandle.End'; do
	echo "$inl" | grep -q "can inline $f\$" || {
		echo "FAIL: $f no longer inlines: a nil hub costs every span a call"; exit 1; }
done
go test -bench '^(BenchmarkRemount|BenchmarkLookup|BenchmarkReadDir|BenchmarkFsck|BenchmarkStagedSync)$' -benchtime 1x -run '^$' ./internal/fs/extfs
go test -bench '^(BenchmarkMountScan|BenchmarkRemount|BenchmarkRemountMissThenHit|BenchmarkCreateUnlink)$' -benchtime 1x -run '^$' ./internal/fs/jffs2sim

echo "==> replay-determinism smoke (run -> bundle -> replay -> shrink)"
# go run remaps the child's exit code, so build the real binary.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bundle="$work/bundle"
go build -o "$work/mcfs" ./cmd/mcfs
rc=0
"$work/mcfs" -fs verifs1 -fs verifs2 -bug write-hole-no-zero \
	-depth 3 -max-ops 5000 -bundle "$bundle" >/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "FAIL: seeded-bug run exited $rc, want 3 (bug found)"; exit 1; }
"$work/mcfs" replay "$bundle" >/dev/null || {
	echo "FAIL: bundle did not reproduce deterministically"; exit 1; }
"$work/mcfs" shrink "$bundle" >/dev/null || {
	echo "FAIL: bundle shrink failed"; exit 1; }
"$work/mcfs" replay "$bundle" >/dev/null || {
	echo "FAIL: minimized bundle did not reproduce"; exit 1; }
# Majority voting names this bug "majority-vote" where the pairwise
# checks say "abstract-state": it reproduces only if replay and shrink
# judge through the same step as the run.
majbundle="$work/majbundle"
rc=0
"$work/mcfs" -fs ext4 -fs verifs1 -fs verifs2 -bug write-hole-no-zero -majority \
	-depth 3 -max-ops 5000 -bundle "$majbundle" >/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "FAIL: seeded -majority run exited $rc, want 3 (bug found)"; exit 1; }
"$work/mcfs" replay "$majbundle" >/dev/null || {
	echo "FAIL: majority-vote bundle did not reproduce"; exit 1; }
"$work/mcfs" shrink "$majbundle" >/dev/null || {
	echo "FAIL: majority-vote bundle shrink failed"; exit 1; }
"$work/mcfs" replay "$majbundle" >/dev/null || {
	echo "FAIL: minimized majority-vote bundle did not reproduce"; exit 1; }

# A swarm's bundle must describe the worker that found the bug: its
# config.json carries that worker's seed (SwarmRun assigns seed = worker
# number), which is what lets replay rebuild the same search.
swarmbundle="$work/swarmbundle"
swarmout="$work/swarm.out"
rc=0
"$work/mcfs" -fs verifs1 -fs verifs2 -bug write-hole-no-zero -swarm 3 -share-visited \
	-depth 3 -max-ops 5000 -bundle "$swarmbundle" >"$swarmout" || rc=$?
[ "$rc" -eq 3 ] || { echo "FAIL: seeded swarm run exited $rc, want 3 (bug found)"; exit 1; }
bugworker=$(sed -n 's/^DISCREPANCY (worker \([0-9]*\)).*/\1/p' "$swarmout")
grep -q "\"seed\": $bugworker,\{0,1\}\$" "$swarmbundle/config.json" || { cat "$swarmbundle/config.json"
	echo "FAIL: swarm bundle config.json does not carry bug worker $bugworker's seed"; exit 1; }
"$work/mcfs" replay "$swarmbundle" >/dev/null || {
	echo "FAIL: swarm bundle did not reproduce deterministically"; exit 1; }

echo "==> go test -race ./internal/fault/... ./internal/fs/extfs/... ./internal/fs/jffs2sim/... ./internal/fs/verifs1/... ./internal/fs/verifs2/... ./internal/fuse/..."
go test -race ./internal/fault/... ./internal/fs/extfs/... ./internal/fs/jffs2sim/... \
	./internal/fs/verifs1/... ./internal/fs/verifs2/... ./internal/fuse/...

echo "==> crash-exploration smoke (-crash -> heatmap -> bundle -> replay -> shrink)"
crashbundle="$work/crashbundle"
heatmap="$work/heatmap.json"
rc=0
"$work/mcfs" -fs ext2 -fs ext4 -bug journal-commit-first -crash \
	-depth 1 -max-ops 5000 -crash-heatmap "$heatmap" \
	-bundle "$crashbundle" >/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "FAIL: seeded crash-bug run exited $rc, want 3 (bug found)"; exit 1; }
# Zero counts are omitted from heatmap cells, so a literal "bug" key
# appears exactly when some crash point was judged a bug.
grep -q '"bug"' "$heatmap" || {
	echo "FAIL: crash heatmap has no bug cell for the seeded journal bug"; exit 1; }
"$work/mcfs" replay "$crashbundle" >/dev/null || {
	echo "FAIL: crash bundle did not reproduce deterministically"; exit 1; }
"$work/mcfs" shrink "$crashbundle" >/dev/null || {
	echo "FAIL: crash bundle shrink failed"; exit 1; }
"$work/mcfs" replay "$crashbundle" >/dev/null || {
	echo "FAIL: minimized crash bundle did not reproduce"; exit 1; }
rc=0
"$work/mcfs" -fs ext2 -fs ext4 -bug journal-commit-first \
	-depth 1 -max-ops 5000 >/dev/null || rc=$?
[ "$rc" -eq 0 ] || { echo "FAIL: without -crash the seeded crash bug must stay invisible (exited $rc)"; exit 1; }
# The jffs2 plane shares every load path with the ext planes; its run is
# deterministic, so the point count is exact.
"$work/mcfs" -fs ext4 -fs jffs2 -crash -depth 2 -max-ops 1500 >"$work/flashcrash.txt" || {
	echo "FAIL: clean ext4-vs-jffs2 crash run did not exit 0"; exit 1; }
grep -q '2824 points explored' "$work/flashcrash.txt" || {
	echo "FAIL: ext4-vs-jffs2 crash run moved off 2824 crash points:"; cat "$work/flashcrash.txt"; exit 1; }

echo "==> mcfslint ./... (domain static analysis)"
go build -o "$work/mcfslint" ./cmd/mcfslint
# The registered suite must stay complete: -list and the -json envelope
# both name every analyzer, so dropping one from Analyzers() fails here
# even while the module itself is finding-free.
analyzers='checkpointleak maporder walltime errnodrop nilobs locks atomicplain structure'
"$work/mcfslint" -list >"$work/lint.list"
"$work/mcfslint" -json ./... >"$work/lint.json" || {
	echo "FAIL: mcfslint reported findings:"; cat "$work/lint.json"; exit 1; }
for a in $analyzers; do
	grep -q "^$a " "$work/lint.list" || {
		echo "FAIL: mcfslint -list does not register analyzer '$a'"; exit 1; }
	grep -q "\"$a\"" "$work/lint.json" || {
		echo "FAIL: mcfslint -json envelope does not name analyzer '$a'"; exit 1; }
done

echo "==> bounded-memory smoke (tiny -mem-budget degrades instead of dying)"
# A 1 MiB budget cannot hold the ext pair's 256 KiB device images at
# exact fidelity: the governor must downgrade the visited table and the
# run must still complete cleanly (exit 0), reporting the degraded
# fidelity and never the out-of-memory failure.
budgetout="$work/budget.out"
rc=0
"$work/mcfs" -fs ext2 -fs ext4 -depth 3 -max-ops 2000 \
	-mem-budget 1M >"$budgetout" 2>&1 || rc=$?
[ "$rc" -eq 0 ] || { cat "$budgetout"
	echo "FAIL: budgeted run exited $rc, want 0 (graceful degradation)"; exit 1; }
grep -q 'visited fidelity: *\(compact\|bitstate\)' "$budgetout" || { cat "$budgetout"
	echo "FAIL: budgeted run did not report degraded visited fidelity"; exit 1; }
if grep -qi 'out of memory' "$budgetout"; then cat "$budgetout"
	echo "FAIL: budgeted run still hit the OOM path"; exit 1; fi

echo "==> fuzz smokes (ten seconds each)"
# NextComponent and JoinPath match their split-and-join references, and
# cleaning a path is idempotent.
go test -run '^$' -fuzz '^FuzzJoinPath$' -fuzztime 10s ./internal/vfs
# A journal is read back from disk: Read + Decode must return an error or
# in-bounds ops on any bytes (a short minimize budget keeps the large
# golden seeds from stalling the smoke).
go test -run '^$' -fuzz '^FuzzJournalRead$' -fuzztime 10s -fuzzminimizetime 1s ./internal/obs/journal
# An extfs volume is read back from a crash image: MountWith (journal
# replay included) and Fsck must return an error or problems on any bytes.
go test -run '^$' -fuzz '^FuzzMountAndFsck$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fs/extfs
# Any 1 KiB directory block scans, is searched and is edited in place to
# exactly what its parse and a re-encode into a blank block give.
go test -run '^$' -fuzz '^FuzzDirBlock$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fs/extfs
# A jffs2 flash is read back from a crash image too: Mount, and a ReadDir,
# Getattr and Create on what it mounted, must return errors on any bytes.
go test -run '^$' -fuzz '^FuzzMount$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fs/jffs2sim
# So is an xfs volume head: Mount refuses a geometry the device cannot
# hold, and a root ReadDir, a Getattr per entry and a Create return errors.
go test -run '^$' -fuzz '^FuzzMount$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fs/xfssim
# A bundle's config.json and bug.json decode to a bundle or an error, and
# every target spec in it to a verdict of checkTarget.
go test -run '^$' -fuzz '^FuzzReadBundle$' -fuzztime 10s -fuzzminimizetime 1s .
# Any op sequence over a disk and a flash — writes, Restore, LoadImage,
# Patch, frame open, rewind, close and revert — leaves each holding the
# bytes of a full image kept per open frame.
go test -run '^$' -fuzz '^FuzzUndoFrames$' -fuzztime 10s -fuzzminimizetime 1s ./internal/blockdev
# Any op sequence with checkpoint, restore and discard calls on any keys,
# in any order, leaves a VeriFS — whose snapshots share what no op wrote
# since — equal to a twin that checkpoints by deep copy.
go test -run '^$' -fuzz '^FuzzCheckpointPool$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fs/verifs1
go test -run '^$' -fuzz '^FuzzCheckpointPool$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fs/verifs2
# Any sequence of writes (overlapping, adjacent, empty, failed, torn,
# erase-sized), windows, lost logs and resets leaves the touched set the
# sort-and-merge of every persisted write's range since the log's base.
go test -run '^$' -fuzz '^FuzzTouchedSet$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fault

echo "==> examples smoke (every examples/* program runs to exit 0)"
for dir in examples/*/; do
	name=$(basename "$dir")
	go build -o "$work/example-$name" "./$dir"
	rc=0
	timeout 60 "$work/example-$name" >"$work/example-$name.out" 2>&1 || rc=$?
	[ "$rc" -eq 0 ] || { cat "$work/example-$name.out"
		echo "FAIL: examples/$name exited $rc, want 0"; exit 1; }
done

echo "==> live-surface smoke (-progress frames and the -events NDJSON of a swarm)"
rc=0
"$work/mcfs" -fs verifs1 -fs verifs2 -swarm 2 -share-visited -depth 3 -max-ops 2000 \
	-progress 1ms -stall-ops 64 -events "$work/ev.ndjson" >/dev/null 2>"$work/live.err" || rc=$?
[ "$rc" -eq 0 ] || { cat "$work/live.err"
	echo "FAIL: live-surface run exited $rc, want 0"; exit 1; }
for line in 'progress w1: ' 'progress w2: ' 'progress swarm: '; do
	grep -q "^$line" "$work/live.err" || { cat "$work/live.err"
		echo "FAIL: -progress printed no '$line' line"; exit 1; }
done
cat >"$work/ndjson.go" <<'GO'
// Command ndjson parses an event file line by line and prints the worker
// of each worker-drain event.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		var ev struct {
			Kind   string `json:"kind"`
			Worker int    `json:"worker"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			fmt.Fprintf(os.Stderr, "line %d: %v\n", n, err)
			os.Exit(1)
		}
		if ev.Kind == "worker-drain" {
			fmt.Println(ev.Worker)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
GO
go run "$work/ndjson.go" "$work/ev.ndjson" >"$work/drains.txt" || {
	echo "FAIL: the -events file does not parse line by line as NDJSON"; exit 1; }
drains=$(sort "$work/drains.txt" | tr '\n' ' ')
[ "$drains" = '1 2 ' ] || {
	echo "FAIL: -events holds worker-drain events for workers '$drains', want one each for 1 and 2"; exit 1; }

echo "OK: all checks passed"
