package mcfs_test

import (
	"runtime"
	"strings"
	"testing"

	"mcfs"
	"mcfs/internal/obs"
	"mcfs/internal/obs/stream"
	"mcfs/internal/vfs"
)

func TestNewSessionValidation(t *testing.T) {
	if _, err := mcfs.NewSession(mcfs.Options{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{{Kind: "ntfs"}},
	}); err == nil || !strings.Contains(err.Error(), "unknown target kind") {
		t.Errorf("unknown kind error = %v", err)
	}
	if _, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{{Kind: "verifs2", Bugs: []string{"nonexistent-bug"}}},
	}); err == nil {
		t.Error("unknown bug accepted")
	}
	if _, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{{Kind: "verifs1", Bugs: []string{mcfs.BugWriteHoleNoZero}}},
	}); err == nil {
		t.Error("verifs2-only bug accepted on verifs1")
	}
}

func TestAllKindsMountAndAgreeInitially(t *testing.T) {
	kinds := [][]string{
		{"ext2", "ext4"},
		{"ext4", "xfs"},
		{"ext4", "jffs2"},
		{"verifs1", "verifs2"},
		{"jffs2", "verifs2"},
	}
	for _, pair := range kinds {
		t.Run(pair[0]+"-vs-"+pair[1], func(t *testing.T) {
			s, err := mcfs.NewSession(mcfs.Options{
				Targets: []mcfs.TargetSpec{{Kind: pair[0]}, {Kind: pair[1]}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			d, err := s.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if d != nil {
				t.Errorf("fresh %v disagree: %v", pair, d)
			}
		})
	}
}

func TestThreeWayComparison(t *testing.T) {
	// §7 future work mentions running more than two file systems; the
	// checker supports any number of targets.
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "verifs2"},
			{Kind: "ext4"},
			{Kind: "jffs2"},
		},
		MaxDepth: 2,
		MaxOps:   150,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("three-way false positive: %v", res.Bug)
	}
}

func TestVerifyDetectsManualDivergence(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := s.Kernel()
	fd, e := k.Open("/mnt0/only-here", vfs.OCreate|vfs.OWrOnly, 0644)
	if !e.IsOK() {
		t.Fatal(e)
	}
	k.Close(fd)
	d, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Error("Verify missed a manual divergence")
	}
}

func TestSessionRunIsBudgeted(t *testing.T) {
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:   []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth:  6,
		MaxStates: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.UniqueStates > 25 {
		t.Errorf("unique states %d exceed MaxStates budget", res.UniqueStates)
	}
}

// TestSessionHoldsNoGoroutines: a session is plain data — building and
// running one over the FUSE-mounted targets, without ever calling Close,
// leaves the goroutine count where it was.
func TestSessionHoldsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		MaxDepth: 2,
		MaxOps:   200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("NewSession: %d goroutines, %d before it", got, before)
	}
	if res := s.Run(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("Run without Close: %d goroutines, %d before it", got, before)
	}
}

func TestDiskOnlyTrackingEventuallyBreaks(t *testing.T) {
	// §3.2: tracking only persistent state must eventually corrupt or
	// diverge the target. Exploration with the broken tracker either
	// reports a (false) discrepancy, errors out on corrupted state, or
	// visibly diverges — it must not complete a substantial run cleanly.
	s, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{
			{Kind: "ext2", DiskOnlyTracking: true},
			{Kind: "ext4", DiskOnlyTracking: true},
		},
		MaxDepth: 3,
		MaxOps:   4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err == nil && res.Bug == nil {
		t.Error("disk-only tracking completed cleanly; expected corruption or divergence (§3.2)")
	} else {
		t.Logf("disk-only tracking failed as expected: err=%v bug=%v", res.Err, res.Bug != nil)
	}
}

func TestFigure2RowRuns(t *testing.T) {
	row, err := mcfs.RunFigure2Row("Ext2 vs Ext4", []mcfs.TargetSpec{
		{Kind: "ext2"}, {Kind: "ext4"},
	}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if row.OpsPerSec <= 0 || row.Ops == 0 {
		t.Errorf("row = %+v", row)
	}
}

func TestFigure2Ratios(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 2 sweep in -short mode")
	}
	rows, err := mcfs.RunFigure2(250)
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, r := range rows {
		rates[r.Label] = r.OpsPerSec
	}
	base := rates["Ext2 vs Ext4"]
	if base <= 0 {
		t.Fatal("no base rate")
	}
	// The paper's shape: VeriFS pair several times faster than the ext
	// pair; HDD/SSD backing and the XFS pairing each an order of
	// magnitude slower; RAM beats both disk backings.
	if v := rates["VeriFS1 vs VeriFS2"] / base; v < 3 || v > 12 {
		t.Errorf("VeriFS speedup = %.1fx, want 3-12x (paper: 5.8x)", v)
	}
	if v := base / rates["Ext2 vs Ext4 (HDD)"]; v < 10 || v > 40 {
		t.Errorf("HDD slowdown = %.1fx, want 10-40x (paper: 20x)", v)
	}
	if v := base / rates["Ext2 vs Ext4 (SSD)"]; v < 10 || v > 40 {
		t.Errorf("SSD slowdown = %.1fx, want 10-40x (paper: 18x)", v)
	}
	if rates["Ext2 vs Ext4 (HDD)"] > rates["Ext2 vs Ext4 (SSD)"] {
		t.Error("HDD faster than SSD")
	}
	if v := base / rates["Ext4 vs XFS"]; v < 6 || v > 30 {
		t.Errorf("XFS slowdown = %.1fx, want 6-30x (paper: 11x)", v)
	}
}

func TestFigure3Shape(t *testing.T) {
	points, err := mcfs.RunFigure3(mcfs.Figure3Config{Days: 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 14*24 {
		t.Fatalf("got %d points", len(points))
	}
	first := points[0]
	// Plateau early, crash somewhere in days 2-6, swap grows, late
	// rebound — the paper's phases.
	var minRate, minDay float64 = first.OpsPerSec, 0
	for _, p := range points {
		if p.OpsPerSec < minRate {
			minRate, minDay = p.OpsPerSec, p.Day
		}
	}
	if minRate > first.OpsPerSec*0.6 {
		t.Errorf("no throughput crash: min %.0f vs initial %.0f", minRate, first.OpsPerSec)
	}
	if minDay < 1 || minDay > 7 {
		t.Errorf("crash at day %.1f, want within days 1-7 (paper: ~3)", minDay)
	}
	last := points[len(points)-1]
	if last.SwapGB < 5 {
		t.Errorf("final swap %.1f GB; expected substantial swap use", last.SwapGB)
	}
	// Rebound: final rate above the post-crash trough (excluding the
	// crash hours themselves).
	mid := points[9*24] // day 9
	if last.OpsPerSec <= mid.OpsPerSec {
		t.Errorf("no late rebound: day9 %.0f vs day14 %.0f", mid.OpsPerSec, last.OpsPerSec)
	}
	if first.OpsPerSec < 500 {
		t.Errorf("initial plateau %.0f ops/s unreasonably low", first.OpsPerSec)
	}
}

func TestFigure3CrashCalibration(t *testing.T) {
	hub := obs.New()
	points, err := mcfs.RunFigure3(mcfs.Figure3Config{
		Days:        1,
		Calibration: mcfs.Options{CrashExploration: true, Obs: hub},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 24 {
		t.Fatalf("got %d points", len(points))
	}
	snap := hub.Profile()
	if !snap.Enabled() {
		t.Fatal("crash calibration recorded no phase work")
	}
	// The crash-mode calibration runs the ext pair with crash probing,
	// so the oracle phases must show up in the profile.
	for _, phase := range []string{obs.PhaseFsck, obs.PhaseRemount, obs.PhaseExecute} {
		if snap.Phases[phase].Count == 0 {
			t.Errorf("phase %q not recorded", phase)
		}
	}
	var sawCrashPoints bool
	for _, s := range snap.Samples {
		if s.CrashPoints > 0 {
			sawCrashPoints = true
		}
	}
	if !sawCrashPoints {
		t.Error("no telemetry sample recorded crash points")
	}
}

// TestFigure3SwarmCalibrationReportsDegradation: a budgeted calibration
// swarm builds its governed set through the same constructor as every
// other caller, so a downgrade reaches the hub and the stream (the
// calibration's own copy of that block had forgotten the hooks).
func TestFigure3SwarmCalibrationReportsDegradation(t *testing.T) {
	hub := obs.New()
	bus := mcfs.NewStream()
	sub := bus.Subscribe(1 << 14)
	defer sub.Close()
	if _, err := mcfs.RunFigure3(mcfs.Figure3Config{
		Days: 1,
		Calibration: mcfs.Options{
			CrashExploration: true, // the ext pair: 256 KiB images starve a 1 MiB budget
			Workers:          2,
			MemBudget:        1 << 20,
			Obs:              hub,
			Stream:           bus,
		},
	}); err != nil {
		t.Fatal(err)
	}
	if n := hub.Snapshot().Counters[obs.MetricFidelityDowngrades]; n == 0 {
		t.Error("hub counted no fidelity downgrade")
	}
	degraded := 0
	for _, ev := range sub.Drain() {
		if ev.Kind == stream.KindFidelityDegraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("no fidelity-degraded event on the calibration stream")
	}
}

func TestSoakFindsNothing(t *testing.T) {
	res, err := mcfs.RunSoak(600)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiscrepancyFound {
		t.Error("soak configuration (ext4 vs verifs1) reported a discrepancy")
	}
	if res.SyscallsExecuted <= res.OpsExecuted {
		t.Error("syscall count not larger than op count (meta-ops + hashing use many syscalls)")
	}
	if res.ProjectedSyscallsPer5Days < 1e6 {
		t.Errorf("projected 5-day syscalls = %.0f; paper sustained 159M", res.ProjectedSyscallsPer5Days)
	}
	t.Logf("projected syscalls over 5 days: %.0fM (paper: 159M over >5 days)",
		res.ProjectedSyscallsPer5Days/1e6)
}

func TestVMSnapshotRateNearPaper(t *testing.T) {
	rate, err := mcfs.VMSnapshotRate(150)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 12 || rate > 40 {
		t.Errorf("VM snapshot rate = %.1f ops/s, want 12-40 (paper: 20-30)", rate)
	}
}

func TestRemountAblationDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	rows, err := mcfs.RunRemountAblation(250)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SpeedupPercent < 15 {
			t.Errorf("%s: removing remounts sped up only %.0f%%; paper saw 38-70%%", r.Label, r.SpeedupPercent)
		}
		if r.WithoutRemounts <= r.WithRemounts {
			t.Errorf("%s: no speedup without remounts", r.Label)
		}
	}
}

func TestCustomPool(t *testing.T) {
	// When one target is VeriFS1 the pool must exclude the operations it
	// does not support (rename/link/symlink, §5), like the paper's runs.
	pool := mcfs.Pool{
		Files:         []string{"/only"},
		WriteOffsets:  []int64{0},
		WriteSizes:    []int64{8},
		TruncateSizes: []int64{4},
		Ops: []mcfs.OpKind{
			mcfs.OpCreateFile, mcfs.OpWriteFile, mcfs.OpTruncate,
			mcfs.OpUnlink, mcfs.OpRead,
		},
	}
	s, err := mcfs.NewSession(mcfs.Options{
		Targets:  []mcfs.TargetSpec{{Kind: "verifs1"}, {Kind: "verifs2"}},
		Pool:     &pool,
		MaxDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Bug != nil {
		t.Fatalf("tiny pool false positive: %v", res.Bug)
	}
	if res.Ops == 0 {
		t.Error("tiny pool explored nothing")
	}
}
