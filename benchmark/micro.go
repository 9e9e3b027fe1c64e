package main

import (
	"fmt"
	"io"
	"sync"

	"mcfs"
	"mcfs/internal/abstraction"
	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
	"mcfs/internal/fault"
	"mcfs/internal/fs/extfs"
	"mcfs/internal/fuse"
	"mcfs/internal/mc/visited"
	"mcfs/internal/obs/journal"
	"mcfs/internal/vfs"
	wload "mcfs/internal/workload"
)

// Below the driver's cycle the benchmark times direct calls on the
// workload's own mounts and devices. The session is disposable: it is
// walked down the journal's first deepest trail so the file systems hold
// a deepest-level state, then each row hammers one layer function.
// Row sample counts are fixed; a row whose layer the workload's targets
// do not have is simply absent (printed as 0).

// timeCalls runs fn n times and returns each call's duration in ns.
func timeCalls(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, float64(now().Sub(t)))
	}
	return out, nil
}

// timeBatches runs fn in nBatch batches of per calls and returns each
// batch's mean ns per call — for calls too short to time one by one.
func timeBatches(nBatch, per int, fn func(i int)) []float64 {
	out := make([]float64, 0, nBatch)
	for b := 0; b < nBatch; b++ {
		t := now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		out = append(out, float64(now().Sub(t))/float64(per))
	}
	return out
}

// rows collects per-layer samples by metric name.
type rows map[string][]float64

func (r rows) add(name string, samples []float64, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r[name] = append(r[name], samples...)
	return nil
}

func asErr(e errno.Errno) error {
	if e != errno.OK {
		return e
	}
	return nil
}

// microRows measures the rows below the cycle boundary for w, at the
// state the trail leads to.
func microRows(w workload, seed int64, trail []wload.Op) (rows, error) {
	r := rows{}
	s, err := mcfs.NewSession(w.options(subSeed(seed, 0, 0)))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	cfg := s.Config()
	k, chk, trackers := cfg.Kernel, cfg.Checker, cfg.Trackers
	step := func(op wload.Op) error {
		for _, t := range trackers {
			if err := t.PreOp(); err != nil {
				return err
			}
		}
		for _, tgt := range chk.Targets() {
			wload.Execute(k, tgt.MountPoint, op) // any errno is a valid outcome here
		}
		for _, t := range trackers {
			if err := t.PostOp(); err != nil {
				return err
			}
		}
		return nil
	}
	if cfg.EqualizeFreeSpace {
		if e := chk.EqualizeFreeSpace(); e != errno.OK {
			return nil, e
		}
	}
	for _, op := range trail {
		if err := step(op); err != nil {
			return nil, err
		}
	}

	// checker / abstraction at the deepest-level state.
	first := chk.Targets()[0].MountPoint
	samples, err := timeCalls(200, func(int) error {
		_, e := abstraction.Hash(k, first, chk.AbstractionOptions())
		return asErr(e)
	})
	if err := r.add("abstraction.hash_us", samples, err); err != nil {
		return nil, err
	}
	for _, tgt := range chk.Targets() {
		recsNow, e := abstraction.Snapshot(k, tgt.MountPoint, chk.AbstractionOptions())
		if e != errno.OK {
			return nil, e
		}
		r["abstraction.records"] = append(r["abstraction.records"], float64(len(recsNow)))
	}

	files := cfg.Pool.Files
	var imageBytes float64
	for _, tgt := range chk.Targets() {
		point := tgt.MountPoint
		mnt, _, e := k.MountAt(point)
		if e != errno.OK {
			return nil, e
		}

		samples, err := timeCalls(1000, func(i int) error {
			_, _ = k.Stat(point + files[i%len(files)]) // ENOENT is as good a dispatch as a hit
			return nil
		})
		if err := r.add("kernel.syscall_us", samples, err); err != nil {
			return nil, err
		}

		if c, ok := mnt.FS().(*fuse.Client); ok {
			samples, err := timeCalls(1000, func(int) error {
				_, e := c.Getattr(c.Root())
				return asErr(e)
			})
			if err := r.add("fuse.roundtrip_us", samples, err); err != nil {
				return nil, err
			}
		}

		if mnt.Type() == "verifs2" {
			var ck, rs []float64
			for i := 0; i < 500; i++ {
				key := uint64(1)<<40 + uint64(i)
				t0 := now()
				e := k.Ioctl(point, vfs.IoctlCheckpoint, key)
				t1 := now()
				if e != errno.OK {
					return nil, e
				}
				e = k.Ioctl(point, vfs.IoctlRestore, key)
				t2 := now()
				if e != errno.OK {
					return nil, e
				}
				ck, rs = append(ck, float64(t1.Sub(t0))), append(rs, float64(t2.Sub(t1)))
			}
			r["fs.verifs2.checkpoint_us"], r["fs.verifs2.restore_us"] = ck, rs
		}

		dev := mnt.Dev()
		if dev == nil {
			continue
		}
		imageBytes += float64(dev.Size())

		samples, err = timeCalls(100, func(int) error { return k.Remount(point) })
		if err := r.add("kernel.remount_us", samples, err); err != nil {
			return nil, err
		}

		mountRow := ""
		switch mnt.Type() {
		case "ext2", "ext4":
			mountRow = "fs.extfs.mount_us"
		case "jffs2":
			mountRow = "fs.jffs2sim.mount_scan_us"
		}
		if mountRow != "" {
			spec, opts := mnt.Spec(), mnt.Options()
			var mounts []float64
			for i := 0; i < 50; i++ {
				if err := k.Unmount(point); err != nil {
					return nil, err
				}
				t := now()
				err := k.Mount(point, spec, opts)
				mounts = append(mounts, float64(now().Sub(t)))
				if err != nil {
					return nil, err
				}
			}
			r[mountRow] = append(r[mountRow], mounts...)
		}

		if t := mnt.Type(); t == "ext2" || t == "ext4" {
			if res := wload.Execute(k, point, wload.Op{Kind: wload.OpCreateFile, Path: "/bench.sync", Mode: 0o644}); res.Err != errno.OK {
				return nil, fmt.Errorf("creating sync scratch file on %s: %w", tgt.Name, res.Err)
			}
			var syncs []float64
			for i := 0; i < 100; i++ {
				wr := wload.Op{Kind: wload.OpWriteFile, Path: "/bench.sync", Size: 4096, Byte: byte(i)}
				if res := wload.Execute(k, point, wr); res.Err != errno.OK {
					return nil, fmt.Errorf("dirtying %s: %w", tgt.Name, res.Err)
				}
				t := now()
				e := k.SyncFS(point)
				syncs = append(syncs, float64(now().Sub(t)))
				if e != errno.OK {
					return nil, e
				}
			}
			r["fs.extfs.sync_us"] = append(r["fs.extfs.sync_us"], syncs...)

			samples, err := timeCalls(30, func(int) error {
				probs, err := extfs.Fsck(dev)
				if err == nil && len(probs) > 0 {
					err = fmt.Errorf("fsck of a synced %s volume: %v", tgt.Name, probs[0])
				}
				return err
			})
			if err := r.add("fs.extfs.fsck_us", samples, err); err != nil {
				return nil, err
			}
		}

		if disk, ok := dev.(*blockdev.Disk); ok {
			if e := k.SyncFS(point); e != errno.OK {
				return nil, e
			}
			// A delta the size of a small op's write set: four scattered blocks.
			bs := int64(disk.BlockSize())
			var delta []fault.Region
			for j := int64(0); j < 4; j++ {
				delta = append(delta, fault.Region{Off: j * disk.Size() / 4, Len: bs})
			}
			var snap, rest, load []float64
			for i := 0; i < 100; i++ {
				t0 := now()
				img, err := disk.Snapshot()
				t1 := now()
				if err != nil {
					return nil, err
				}
				if err := disk.Restore(img); err != nil {
					return nil, err
				}
				t2 := now()
				if err := disk.LoadImageDelta(img, delta); err != nil {
					return nil, err
				}
				t3 := now()
				snap, rest, load = append(snap, float64(t1.Sub(t0))), append(rest, float64(t2.Sub(t1))), append(load, float64(t3.Sub(t2)))
			}
			r["blockdev.snapshot_us"] = append(r["blockdev.snapshot_us"], snap...)
			r["blockdev.restore_us"] = append(r["blockdev.restore_us"], rest...)
			r["blockdev.load_image_delta_us"] = append(r["blockdev.load_image_delta_us"], load...)
		}
	}
	r["blockdev.image_bytes"] = []float64{imageBytes}

	if cfg.Crash != nil {
		// What one op's touch log covers on each crash plane: the bytes
		// a delta power cut or rollback has to move.
		for _, op := range cfg.Pool.Enumerate() {
			for i := range cfg.Crash.Planes {
				cfg.Crash.Planes[i].Injector.StartTouchLog()
			}
			if err := step(op); err != nil {
				return nil, err
			}
			for i := range cfg.Crash.Planes {
				inj := cfg.Crash.Planes[i].Injector
				if regions, ok := inj.Touched(); ok {
					var n int64
					for _, reg := range fault.CoalesceRegions(regions) {
						n += reg.Len
					}
					r["fault.touched_bytes"] = append(r["fault.touched_bytes"], float64(n))
				}
				inj.StopTouchLog()
			}
		}
	}
	return r, nil
}

// xfs16mRows times full-image checkpoint and restore of a 16 MiB xfs
// volume through its RemountTracker — the cost an ext4-vs-xfs workload
// would be made of, kept as two rows because that workload itself is
// too noisy to time here.
func xfs16mRows(r rows) error {
	s, err := mcfs.NewSession(mcfs.Options{Targets: []mcfs.TargetSpec{{Kind: "ext4"}, {Kind: "xfs"}}, MaxDepth: 1})
	if err != nil {
		return err
	}
	defer s.Close()
	tr := s.Config().Trackers[1]
	for i := 0; i < 12; i++ {
		key := uint64(i)
		t0 := now()
		if err := tr.Checkpoint(key); err != nil {
			tr.Discard(key)
			return err
		}
		t1 := now()
		if err := tr.Restore(key); err != nil {
			tr.Discard(key)
			return err
		}
		t2 := now()
		r["tracker.checkpoint_us.xfs16m"] = append(r["tracker.checkpoint_us.xfs16m"], float64(t1.Sub(t0)))
		r["tracker.restore_us.xfs16m"] = append(r["tracker.restore_us.xfs16m"], float64(t2.Sub(t1)))
	}
	return nil
}

// visitedRows times visited.Set.Visit on each backend, half the visits
// novel and half repeats, and on the exact backend from two goroutines
// at once (the swarm's access pattern).
func visitedRows(seed int64, r rows) error {
	const batches, per = 16, 8192
	states := make([]abstraction.State, batches*per)
	for i := range states {
		x := splitmix64(uint64(seed) ^ uint64(i%(len(states)/2)))
		for b := 0; b < 16; b++ {
			states[i][b] = byte(splitmix64(x+uint64(b/8)) >> (8 * (b % 8)))
		}
	}
	for _, kind := range []visited.Kind{visited.KindExact, visited.KindCompact, visited.KindBitstate} {
		tbl, err := visited.NewTable(kind, 0)
		if err != nil {
			return err
		}
		set := visited.NewSet(tbl)
		r["mc.visited.visit_ns."+string(kind)] = timeBatches(batches, per, func(i int) { set.Visit(states[i], i%8) })
	}
	set := visited.NewSet(visited.NewExact())
	var wg sync.WaitGroup
	out := make([][]float64, 2)
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// The two goroutines walk the states from opposite ends, so
			// each sees both novel states and the other's.
			out[g] = timeBatches(batches, per, func(i int) {
				if g == 1 {
					i = len(states) - 1 - i
				}
				set.Visit(states[i], i%8)
			})
		}(g)
	}
	wg.Wait()
	r["mc.visited.visit_ns.shared2"] = append(out[0], out[1]...)
	return nil
}

// journalRows times appending one op record to a journal whose sink
// discards.
func journalRows(r rows) {
	rec := journal.NewWriter(io.Discard, journal.Options{}).Recorder(0)
	op := journal.EncodeOp(wload.Op{Kind: wload.OpWriteFile, Path: "/d0/f2", Off: 1000, Size: 4096, Byte: 0x55})
	errnos := []string{"OK", "OK"}
	const state = "0123456789abcdef0123456789abcdef"
	r["obs.journal.append_ns"] = timeBatches(10, 2000, func(i int) { rec.Op(i%4, op, errnos, state, i%2 == 0, i%3 == 0) })
}
