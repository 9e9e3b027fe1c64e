package mcfs_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mcfs"
)

// specAttachments are the Options fields a bundle deliberately does not
// carry: live objects and host-only knobs. Every other field is a
// serialised setting.
var specAttachments = map[string]bool{
	"Pool": true, "Memory": true, "Resume": true, "Cancel": true, "Obs": true,
	"Journal": true, "Stream": true, "StreamWorker": true,
}

// fillNonZero sets v, and everything settable under it, to a non-zero
// value.
func fillNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		elem := reflect.New(v.Type().Elem()).Elem()
		fillNonZero(t, elem)
		v.Set(reflect.Append(v, elem))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i))
		}
	default:
		t.Fatalf("fillNonZero: no rule for %s; teach the test this kind", v.Type())
	}
}

// TestSpecRoundTripLaw is the drift guard that replaces the hand-kept
// copy lists: every exported Options field is either an allowlisted
// attachment tagged `json:"-"`, or a tagged setting that survives
// Marshal -> Unmarshal unchanged. A field added without deciding which
// fails here.
func TestSpecRoundTripLaw(t *testing.T) {
	var want mcfs.Options
	wv := reflect.ValueOf(&want).Elem()
	var settings []int
	for i := 0; i < wv.NumField(); i++ {
		f := wv.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case specAttachments[f.Name] && name != "-":
			t.Errorf("%s is on the attachment allowlist but tagged json:%q, want \"-\"", f.Name, name)
		case specAttachments[f.Name]:
		case name == "" || name == "-":
			t.Errorf("%s has json name %q: give it a key, or add it to the attachment allowlist", f.Name, name)
		default:
			fillNonZero(t, wv.Field(i))
			settings = append(settings, i)
		}
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got mcfs.Options
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	gv := reflect.ValueOf(got)
	for _, i := range settings {
		if w, g := wv.Field(i).Interface(), gv.Field(i).Interface(); !reflect.DeepEqual(w, g) {
			t.Errorf("%s did not survive the round trip: %+v -> %+v", wv.Type().Field(i).Name, w, g)
		}
	}
}

// TestParentBundlesStillLoad: the config.json files the parent commit
// wrote for check.sh's step-6 and step-8 runs (when the bundle config
// was its own struct) decode to the Options that describe those runs,
// are what WriteBundle writes for those Options today, and still replay.
func TestParentBundlesStillLoad(t *testing.T) {
	ram := func(kind string, bugs ...string) mcfs.TargetSpec {
		return mcfs.TargetSpec{Kind: kind, Backing: mcfs.BackingRAM, Bugs: bugs}
	}
	for name, want := range map[string]mcfs.Options{
		"step6": {
			Targets:  []mcfs.TargetSpec{ram("verifs1"), ram("verifs2", mcfs.BugWriteHoleNoZero)},
			MaxDepth: 3, MaxOps: 5000,
		},
		"step6-majority": {
			Targets:  []mcfs.TargetSpec{ram("ext4"), ram("verifs1"), ram("verifs2", mcfs.BugWriteHoleNoZero)},
			MaxDepth: 3, MaxOps: 5000, MajorityVote: true,
		},
		"step8": {
			Targets:  []mcfs.TargetSpec{ram("ext2"), ram("ext4", mcfs.BugJournalCommitFirst)},
			MaxDepth: 1, MaxOps: 5000, CrashExploration: true,
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "bundles", name)
			b, err := mcfs.ReadBundle(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b.Config, want) {
				t.Errorf("config.json decoded to\n%+v\nwant\n%+v", b.Config, want)
			}

			rewritten := t.TempDir()
			if err := mcfs.WriteBundle(rewritten, b.Config, mcfs.Result{}, "", nil); err != nil {
				t.Fatal(err)
			}
			old, err := os.ReadFile(filepath.Join(dir, mcfs.BundleConfigFile))
			if err != nil {
				t.Fatal(err)
			}
			now, err := os.ReadFile(filepath.Join(rewritten, mcfs.BundleConfigFile))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(old, now) {
				t.Errorf("config.json is no longer written as the parent wrote it:\n%s\nnow:\n%s", old, now)
			}

			out, err := b.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if !out.Reproduced {
				t.Errorf("trail did not reproduce: %v", out.Discrepancy)
			}
			recs, err := b.JournalRecords()
			if err != nil {
				t.Fatal(err)
			}
			s, err := mcfs.NewSession(b.Config)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rep, err := s.ReplayJournal(recs)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Diverged || !rep.BugReproduced {
				t.Errorf("journal replay: diverged=%v (%s), bug reproduced=%v", rep.Diverged, rep.Reason, rep.BugReproduced)
			}
		})
	}
}

// TestRetiredCrashPointsKeyStillReplays: bundles written while the crash
// point cap was a setting carry "crash_points_per_op". The key is unknown
// now, so it is ignored: the bundle reads as the same run and replays,
// because replay re-probes the recorded crash write, never a sample.
func TestRetiredCrashPointsKeyStillReplays(t *testing.T) {
	src := filepath.Join("testdata", "bundles", "step8")
	dir := t.TempDir()
	for _, name := range []string{mcfs.BundleConfigFile, "bug.json", "journal.jsonl"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == mcfs.BundleConfigFile {
			data = bytes.Replace(data, []byte(`"crash_exploration": true`), []byte(`"crash_exploration": true,
  "crash_points_per_op": 3`), 1)
			if !bytes.Contains(data, []byte("crash_points_per_op")) {
				t.Fatalf("could not add the retired key to:\n%s", data)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old, err := mcfs.ReadBundle(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mcfs.ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Config, old.Config) {
		t.Errorf("config.json with the retired key decoded to\n%+v\nwant\n%+v", b.Config, old.Config)
	}
	out, err := b.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reproduced {
		t.Errorf("trail did not reproduce: %v", out.Discrepancy)
	}
}

// TestUnknownBackingIsRejected: a backing NewSession does not know used
// to fall through to the RAM profile and run with RAM numbers.
func TestUnknownBackingIsRejected(t *testing.T) {
	_, err := mcfs.NewSession(mcfs.Options{
		Targets: []mcfs.TargetSpec{{Kind: "ext2"}, {Kind: "ext4", Backing: "sdd"}},
	})
	if err == nil || !strings.Contains(err.Error(), `unknown backing "sdd"`) {
		t.Fatalf("err = %v, want unknown backing", err)
	}
}

// TestBugSupportPerKind: every kind accepts exactly the seeded bugs it
// implements and rejects every other name — a run must never report
// clean because the bug it was asked to seed was silently dropped.
func TestBugSupportPerKind(t *testing.T) {
	supported := map[string][]string{
		"ext2":    nil,
		"ext4":    {mcfs.BugJournalCommitFirst},
		"xfs":     nil,
		"jffs2":   nil,
		"verifs1": {mcfs.BugTruncateNoZero, mcfs.BugNoCacheInvalidate},
		"verifs2": {mcfs.BugWriteHoleNoZero, mcfs.BugSizeUpdateOnOverflow, mcfs.BugNoCacheInvalidate},
	}
	bugs := []string{mcfs.BugTruncateNoZero, mcfs.BugNoCacheInvalidate, mcfs.BugWriteHoleNoZero,
		mcfs.BugSizeUpdateOnOverflow, mcfs.BugJournalCommitFirst, "nonsense"}
	for kind, ok := range supported {
		for _, bug := range bugs {
			s, err := mcfs.NewSession(mcfs.Options{Targets: []mcfs.TargetSpec{{Kind: kind, Bugs: []string{bug}}}})
			if err == nil {
				s.Close()
			}
			switch want := slices.Contains(ok, bug); {
			case want && err != nil:
				t.Errorf("%s rejects its own bug %q: %v", kind, bug, err)
			case !want && err == nil:
				t.Errorf("%s silently accepts bug %q", kind, bug)
			case !want && !strings.Contains(err.Error(), "does not support bug"):
				t.Errorf("%s with bug %q: err = %v, want a does-not-support-bug error", kind, bug, err)
			}
		}
	}
}

// TestDeviceSizeIsValidated: DeviceSize arrives from a bundle's
// config.json, so any value must produce a session or an error — never a
// panic in a device constructor.
func TestDeviceSizeIsValidated(t *testing.T) {
	sizes := []int64{-4096, -1, 1, 1000, 4096, 8192, 20000, 64 * 1024, 100000, 256 * 1024, 16 << 20}
	for _, kind := range []string{"ext2", "ext4", "xfs", "jffs2", "verifs1", "verifs2"} {
		for _, size := range sizes {
			s, err := mcfs.NewSession(mcfs.Options{Targets: []mcfs.TargetSpec{{Kind: kind, DeviceSize: size}}})
			if err == nil {
				s.Close()
			}
			if size < 0 && err == nil {
				t.Errorf("%s accepts device size %d", kind, size)
			}
			if kind == "jffs2" && size%8192 != 0 && (err == nil || !strings.Contains(err.Error(), "device size")) {
				t.Errorf("jffs2 with device size %d: err = %v, want a device-size error", size, err)
			}
		}
	}
}
