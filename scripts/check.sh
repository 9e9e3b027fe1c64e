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
#                                                    model reading a set
#                                                    its peers write; the
#                                                    path walk every swarm
#                                                    worker runs)
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
#                                                    abstraction walk)
#   6. replay-determinism smoke: a seeded-bug run   (flight recorder end
#      writes a repro bundle, mcfs replay must       to end: journal ->
#      reproduce it, mcfs shrink must minimize it;   bundle -> replay ->
#      then the same for a three-target -majority    shrink; run and
#      run, whose bug only the shared step names,    replay are one step;
#      and a -swarm -share-visited run whose bundle  a swarm bundle names
#      must carry the bug worker's seed and replay   the worker to rebuild)
#   7. go test -race ./internal/fault/...           (fault plane, extfs
#         ./internal/fs/extfs/...                    and jffs2sim under the
#         ./internal/fs/jffs2sim/...                 race detector: a mount
#                                                    reads flash the MTD
#                                                    lends, outside its lock)
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
#      full nine-analyzer suite, so a registry        leaks, map-order
#      regression can't silently drop the             nondeterminism, wall
#      flow-sensitive analyzers (lockorder,           time, dropped errnos,
#      guardedby, atomicplain, lockbalance)           nil-obs safety, lock
#                                                    order/balance, guarded
#                                                    fields, atomic/plain
#                                                    mixing)
#  10. one-golden guard: internal/bench, the        (BENCH_mc.json is a
#      tolerance (DefaultTolerance, bench.Compare,    golden like every
#      a "tolerance" flag) and any import of          other pinned artifact:
#      mcfs/internal/bench stay deleted               step 2 compares it
#                                                    byte for byte and
#                                                    -update rewrites it)
#  11. bounded-memory smoke: a run under a tiny      (the memory governor
#      -mem-budget must complete (exit 0) at          degrades fidelity
#      reduced visited fidelity instead of dying      instead of dying
#      out of memory                                  mid-run)
#  12. event-seam guard: no instrumentation guard    (the explore loop talks
#      or phase timer in internal/mc outside          to one probe; planes
#      probe.go and tests                             cannot leak back in)
#  13. op-path guard: no go statement and no         (an explored op is one
#      channel in the non-test files of the           call stack under the
#      packages an explored op crosses                engine's recover; a
#                                                    transport goroutine
#                                                    cannot come back
#                                                    unseen)
#  14. one-walk guard: Checker.StateHash is called   (the step that judges
#      once in internal/mc, for the initial state;    a state is the only
#      every later hash comes from the step's own     code that hashes it)
#      state check
#  15. image-copy guard: in non-test                 (a crash point is a
#      internal/blockdev only Snapshot allocates      position in the write
#      a whole image, and the whole-image capture     log; no write, program
#      API (SetCrashImage/TakeCrashImage) stays       or erase path copies
#      deleted                                        the device)
#  16. one-lock guard: non-test internal/mc/visited  (the visited set is
#      and internal/memmodel import no sync/atomic    one map behind one
#      and name at most two sync types between        mutex, and a memory
#      them, and the ledger and the slot table        model reads its size
#      (AttachMem, AddSharedVisited, InsertVisited,   instead of being
#      InitialSlots) stay deleted                     billed for it)
#  17. parse guard: no strings.Split in non-test     (a path is consumed a
#      internal/vfs, internal/kernel and              component at a time
#      internal/abstraction, no strings.Join in the   under every syscall,
#      first two, no JoinPath in the abstraction      and the abstraction
#      walk, SplitPath/BaseName/DirPath stay          walk builds paths
#      deleted; plus a 10 s FuzzJoinPath smoke,       that need no cleaning;
#      a 10 s FuzzJournalRead smoke, a 10 s           a journal decodes to
#      FuzzMountAndFsck smoke and a 10 s              in-bounds ops or an
#      FuzzMount smoke                                error; a mount and an
#                                                    fsck of any extfs
#                                                    bytes return an error
#                                                    or problems; a jffs2
#                                                    mount of any flash
#                                                    returns errors)
#  18. scan guard: no sort.Slice in non-test         (a jffs2 mount parses
#      internal/fs/jffs2sim, and no make([]byte       the blocks that changed,
#      in the mount scan (MountCached and the         in place, from bytes the
#      per-block scan): nodes are recorded by         MTD lends; nothing is
#      position in lent bytes                         copied per block or node)
#  19. one-hub guard: internal/obs/perf, the         (an engine has one
#      profiler type, obs.Options, Session.Perf and   observability object:
#      SetSampleEvery stay deleted; non-test          phases, telemetry,
#      internal/obs keeps no span ring                metrics and spans live
#      (TraceCapacity, DroppedSpans), reads no wall   on the hub, which reads
#      clock and carries no lint:ignore               the session's virtual
#                                                    clock)
#  20. one-log guard: the crash-point arming API     (every persisted window
#      (ArmCrash, DisarmPending, Armed,               write is a crash point:
#      CrashCaptures, maxArmedPoints) and the         nothing arms, caps,
#      crash-point cap settings (PointsPerOp,         disarms or leak-checks
#      CrashPointsPerOp, -crash-points) stay          a position in the
#      deleted                                        write log)
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

echo "==> bench smoke (one iteration per benchmark)"
go test -bench . -benchtime 1x -run '^$' ./internal/mc/... ./internal/tracker/... ./internal/fuse/... \
	./internal/kernel/... ./internal/abstraction/...

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

echo "==> go test -race ./internal/fault/... ./internal/fs/extfs/... ./internal/fs/jffs2sim/..."
go test -race ./internal/fault/... ./internal/fs/extfs/... ./internal/fs/jffs2sim/...

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
grep -q '2852 points explored' "$work/flashcrash.txt" || {
	echo "FAIL: ext4-vs-jffs2 crash run moved off 2852 crash points:"; cat "$work/flashcrash.txt"; exit 1; }

echo "==> mcfslint ./... (domain static analysis)"
go build -o "$work/mcfslint" ./cmd/mcfslint
# The registered suite must stay complete: -list and the -json envelope
# both name every analyzer, so dropping one from Analyzers() fails here
# even while the module itself is finding-free.
for a in checkpointleak maporder walltime errnodrop nilobs \
		lockorder guardedby atomicplain lockbalance; do
	"$work/mcfslint" -list | grep -q "^$a " || {
		echo "FAIL: mcfslint -list does not register analyzer '$a'"; exit 1; }
done
"$work/mcfslint" -json ./... >"$work/lint.json" || {
	echo "FAIL: mcfslint reported findings:"; cat "$work/lint.json"; exit 1; }
for a in checkpointleak maporder walltime errnodrop nilobs \
		lockorder guardedby atomicplain lockbalance; do
	grep -q "\"$a\"" "$work/lint.json" || {
		echo "FAIL: mcfslint -json envelope does not name analyzer '$a'"; exit 1; }
done

echo "==> one-golden guard (BENCH_mc.json is a golden; no tolerance gate beside it)"
[ ! -e internal/bench ] || { echo "FAIL: internal/bench is back"; exit 1; }
if grep -rnE --include='*.go' 'DefaultTolerance|bench\.Compare|"tolerance"|"mcfs/internal/bench"' \
	internal cmd examples ./*.go; then
	echo "FAIL: the benchmark tolerance gate is back (see above)"; exit 1; fi

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

echo "==> event-seam guard (instrumentation lives in internal/mc/probe.go only)"
if grep -n 'eobs != nil\|\.es != nil\|Journal\.Enabled()\|Perf\.Start(' internal/mc/*.go |
	grep -v '^internal/mc/probe\.go:\|_test\.go:'; then
	echo "FAIL: instrumentation guard or phase timer outside the probe (see above)"; exit 1; fi

echo "==> op-path guard (no goroutine or channel between the engine and the media)"
if grep -rnE --include='*.go' '^[[:space:]]*go[[:space:]]|make\(chan' \
	internal/workload internal/kernel internal/fuse internal/fs internal/blockdev \
	internal/fault internal/tracker internal/checker internal/abstraction |
	grep -v '_test\.go:'; then
	echo "FAIL: go statement or channel in a package an explored op crosses (see above)"; exit 1; fi

echo "==> one-walk guard (only explore() hashes a state outside the step's check)"
walks=$(grep -n 'StateHash(' internal/mc/*.go | grep -v '_test\.go:' | sed 's/:[0-9]*:[[:space:]]*/: /')
[ "$walks" = 'internal/mc/mc.go: h, er := e.cfg.Checker.StateHash()' ] || { echo "$walks"
	echo "FAIL: internal/mc must call StateHash exactly once, for the initial state in explore()"; exit 1; }

echo "==> image-copy guard (write path never copies the image)"
for f in internal/blockdev/*.go; do
	case "$f" in *_test.go) continue ;; esac
	awk -v f="$f" '/^func /{fn=$0}
		/make\(\[\]byte, len\((d|m)\.data\)\)/ && fn !~ /\) Snapshot\(\)/ {print f":"FNR": "$0; bad=1}
		END{exit bad}' "$f" || {
		echo "FAIL: a whole-image allocation outside Snapshot in internal/blockdev (see above)"; exit 1; }
done
if grep -rn 'SetCrashImage\|TakeCrashImage' internal cmd ./*.go; then
	echo "FAIL: the whole-image crash capture API is back (see above)"; exit 1; fi

echo "==> one-lock guard (the visited set has one lock)"
onelock=$(ls internal/mc/visited/*.go internal/memmodel/*.go | grep -v '_test\.go$')
# shellcheck disable=SC2086
if grep -n '"sync/atomic"' $onelock; then
	echo "FAIL: sync/atomic in the visited set or the memory model (see above)"; exit 1; fi
# shellcheck disable=SC2086
locks=$(cat $onelock | grep -c 'sync\.' || true)
[ "$locks" -le 2 ] || { grep -n 'sync\.' $onelock
	echo "FAIL: $locks sync types in the visited set and the memory model, want at most 2 (the set's mutex, the governor's)"; exit 1; }
if grep -rn 'InsertVisited\|AddSharedVisited\|AttachMem\|InitialSlots' internal cmd ./*.go; then
	echo "FAIL: the visited-set memory ledger or the model's slot table is back (see above)"; exit 1; fi

echo "==> parse guard (a path is consumed in place, never split and re-joined)"
parsed=$(ls internal/vfs/*.go internal/kernel/*.go internal/abstraction/*.go | grep -v '_test\.go$')
# shellcheck disable=SC2086
if grep -n 'strings\.Split' $parsed; then
	echo "FAIL: strings.Split on the path-resolution or abstraction path (see above)"; exit 1; fi
# recordDiff's strings.Join renders a report and stays, so abstraction is
# not in this one.
if echo "$parsed" | grep -v '^internal/abstraction/' | xargs grep -n 'strings\.Join'; then
	echo "FAIL: strings.Join in internal/vfs or internal/kernel (see above)"; exit 1; fi
if grep -n 'JoinPath' internal/abstraction/abstraction.go; then
	echo "FAIL: the abstraction walk cleans a path it built itself (see above)"; exit 1; fi
if grep -rn 'SplitPath\|BaseName\|DirPath' --include='*.go' internal cmd benchmark ./*.go |
	grep -v '_test\.go:'; then
	echo "FAIL: a deleted path helper is back outside the tests (see above)"; exit 1; fi
go test -run '^$' -fuzz '^FuzzJoinPath$' -fuzztime 10s ./internal/vfs
# A journal is read back from disk: Read + Decode must return an error or
# in-bounds ops on any bytes (a short minimize budget keeps the large
# golden seeds from stalling the smoke).
go test -run '^$' -fuzz '^FuzzJournalRead$' -fuzztime 10s -fuzzminimizetime 1s ./internal/obs/journal
# An extfs volume is read back from a crash image: MountWith (journal
# replay included) and Fsck must return an error or problems on any bytes.
go test -run '^$' -fuzz '^FuzzMountAndFsck$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fs/extfs
# A jffs2 flash is read back from a crash image too: Mount, and a ReadDir,
# Getattr and Create on what it mounted, must return errors on any bytes.
go test -run '^$' -fuzz '^FuzzMount$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fs/jffs2sim

echo "==> scan guard (a jffs2 mount copies no flash and sorts without reflection)"
for f in internal/fs/jffs2sim/*.go; do
	case "$f" in *_test.go) continue ;; esac
	if grep -n 'sort\.Slice' "$f"; then
		echo "FAIL: sort.Slice in non-test internal/fs/jffs2sim (see above; use slices.Sort/SortFunc)"; exit 1; fi
	awk -v f="$f" '/^func /{fn=$0}
		/make\(\[\]byte/ && fn ~ /^func (MountCached|\(b \*blockScan\) scan)\(/ {print f":"FNR": "$0; bad=1}
		END{exit bad}' "$f" || {
		echo "FAIL: the jffs2 mount scan allocates a byte buffer (see above); it reads the bytes the MTD lends"; exit 1; }
done
grep -q '^func MountCached(' internal/fs/jffs2sim/jffs2sim.go && grep -q '^func (b \*blockScan) scan(' internal/fs/jffs2sim/jffs2sim.go || {
	echo "FAIL: the scan guard no longer finds the functions it watches (MountCached, blockScan.scan)"; exit 1; }

echo "==> one-hub guard (phases, telemetry, metrics and spans live on one obs.Hub)"
[ ! -e internal/obs/perf ] || { echo "FAIL: internal/obs/perf is back"; exit 1; }
if grep -rn --include='*.go' 'mcfs/internal/obs/perf\|perf\.Profiler\|obs\.Options\|\.Perf()\|SetSampleEvery' \
	internal cmd examples ./*.go; then
	echo "FAIL: a second phase profiler or the hub's options are back (see above)"; exit 1; fi
obsfiles=$(find internal/obs -name '*.go' ! -name '*_test.go')
# shellcheck disable=SC2086
if grep -n 'TraceCapacity\|DroppedSpans\|time\.Now\|lint:ignore' $obsfiles; then
	echo "FAIL: non-test internal/obs keeps a span ring, reads the wall clock or suppresses a lint (see above)"; exit 1; fi

echo "==> one-log guard (every persisted window write is a crash point; nothing arms one)"
if grep -rnE --include='*.go' 'ArmCrash|DisarmPending|\.Armed\(\)|CrashCaptures|maxArmedPoints|\bPointsPerOp\b|CrashPointsPerOp|crash-points' \
	internal cmd examples ./*.go; then
	echo "FAIL: the crash-point arming API or a crash-point cap setting is back (see above)"; exit 1; fi

echo "OK: all checks passed"
