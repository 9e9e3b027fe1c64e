// Package checker implements MCFS's integrity checks: after every
// operation, all file systems under test must exhibit identical observable
// behavior — matching return values, matching errnos, and matching
// abstract states (§2). On any mismatch the checker produces a
// Discrepancy, which the explorer wraps with the operation trail that led
// to it.
//
// The checker also implements the §3.4 false-positive workarounds:
// directory sizes and entry order are normalized by the abstraction
// function; special files (lost+found, the space-equalizer dummy) live on
// an exception list; and EqualizeFreeSpace pads every file system down to
// the smallest free space among them so ENOSPC fires on all of them at
// the same point.
package checker

import (
	"crypto/md5"
	"fmt"
	"sort"
	"strings"

	"mcfs/internal/abstraction"
	"mcfs/internal/errno"
	"mcfs/internal/kernel"
	"mcfs/internal/obs"
	"mcfs/internal/vfs"
)

// DummyFileName is the space-equalizer file created in each file system's
// root; it is on the abstraction exception list.
const DummyFileName = ".mcfs_space_equalizer"

// Target is one file system under test.
type Target struct {
	// Name labels the target in reports, e.g. "ext4".
	Name string
	// MountPoint is where the file system is mounted.
	MountPoint string
}

// OpResult is the observable outcome of one operation on one target.
type OpResult struct {
	// Ret is the primary return value (bytes written, fd-independent
	// values normalized by the caller; -1 on error).
	Ret int64
	// Err is the errno (OK on success).
	Err errno.Errno
	// Data is the returned payload for read-like operations; nil
	// otherwise.
	Data []byte
}

// Discrepancy describes a behavioral difference between targets.
type Discrepancy struct {
	// Kind is "errno", "return-value", "data", or "abstract-state".
	Kind string
	// Op names the operation that exposed it.
	Op string
	// Details holds one line per observed difference.
	Details []string
}

// Error implements the error interface.
func (d *Discrepancy) Error() string {
	return fmt.Sprintf("discrepancy [%s] after %s: %s", d.Kind, d.Op, strings.Join(d.Details, "; "))
}

// Checker compares the targets mounted in one kernel.
type Checker struct {
	k       *kernel.Kernel
	targets []Target
	opts    abstraction.Options

	obsHub      *obs.Hub
	histCompare *obs.Histogram
}

// SetObs attaches an observability hub: every post-operation
// compare+hash pass records its latency under obs.MetricCompare and
// opens a LayerChecker span (whose kernel-syscall children are the
// abstraction traversal). Nil-safe.
func (c *Checker) SetObs(h *obs.Hub) {
	c.obsHub = h
	c.histCompare = h.Histogram(obs.MetricCompare)
}

// New builds a checker over the given targets. The abstraction options
// get the standard exception list plus the space-equalizer dummy.
func New(k *kernel.Kernel, targets []Target) *Checker {
	opts := abstraction.New()
	opts.ExceptionList = append(append([]string{}, opts.ExceptionList...), DummyFileName)
	return &Checker{k: k, targets: targets, opts: opts}
}

// Targets returns the targets under comparison.
func (c *Checker) Targets() []Target { return c.targets }

// AbstractionOptions exposes the options (the explorer hashes with the
// same exception list).
func (c *Checker) AbstractionOptions() abstraction.Options { return c.opts }

// CheckResultsMajority compares per-target outcomes with majority voting
// (the paper's §7 future work): with three or more targets, the majority
// outcome is taken as correct and the deviating targets are named in the
// report. With two targets it behaves like CheckResults. A tie (no strict
// majority) reports all groups.
func (c *Checker) CheckResultsMajority(op string, results []OpResult) *Discrepancy {
	if len(results) != len(c.targets) {
		return &Discrepancy{Kind: "internal", Op: op,
			Details: []string{fmt.Sprintf("got %d results for %d targets", len(results), len(c.targets))}}
	}
	if len(results) < 3 {
		return c.CheckResults(op, results)
	}
	type outcome struct {
		err  errno.Errno
		ret  int64
		data string
	}
	groups := make(map[outcome][]int)
	for i, r := range results {
		o := outcome{err: r.Err}
		if r.Err == errno.OK {
			o.ret = r.Ret
			o.data = string(r.Data)
		}
		groups[o] = append(groups[o], i)
	}
	if len(groups) == 1 {
		return nil
	}
	// Find the strict majority group, if any.
	var majority outcome
	majoritySize := 0
	for o, members := range groups {
		if len(members) > majoritySize {
			majority, majoritySize = o, len(members)
		}
	}
	var details []string
	if majoritySize*2 > len(results) {
		for o, members := range groups {
			if o == majority {
				continue
			}
			for _, i := range members {
				details = append(details, fmt.Sprintf(
					"%s deviates from the majority: %v/ret=%d vs majority %v/ret=%d",
					c.targets[i].Name, o.err, o.ret, majority.err, majority.ret))
			}
		}
	} else {
		for o, members := range groups {
			names := make([]string, len(members))
			for j, i := range members {
				names[j] = c.targets[i].Name
			}
			details = append(details, fmt.Sprintf("no majority: %v returned %v/ret=%d", names, o.err, o.ret))
		}
	}
	sort.Strings(details)
	return &Discrepancy{Kind: "majority-vote", Op: op, Details: details}
}

// CheckResults compares the per-target outcomes of one operation. Return
// values are compared only when every target succeeded (error returns are
// -1 everywhere); errnos are always compared.
func (c *Checker) CheckResults(op string, results []OpResult) *Discrepancy {
	if len(results) != len(c.targets) {
		return &Discrepancy{Kind: "internal", Op: op,
			Details: []string{fmt.Sprintf("got %d results for %d targets", len(results), len(c.targets))}}
	}
	base := results[0]
	for i := 1; i < len(results); i++ {
		r := results[i]
		if r.Err != base.Err {
			return &Discrepancy{
				Kind: "errno",
				Op:   op,
				Details: []string{fmt.Sprintf("%s returned %v but %s returned %v",
					c.targets[0].Name, base.Err, c.targets[i].Name, r.Err)},
			}
		}
		if base.Err == errno.OK && r.Ret != base.Ret {
			return &Discrepancy{
				Kind: "return-value",
				Op:   op,
				Details: []string{fmt.Sprintf("%s returned %d but %s returned %d",
					c.targets[0].Name, base.Ret, c.targets[i].Name, r.Ret)},
			}
		}
		if base.Err == errno.OK && !bytesEqual(base.Data, r.Data) {
			return &Discrepancy{
				Kind: "data",
				Op:   op,
				Details: []string{fmt.Sprintf("%s returned %d bytes %.32q but %s returned %d bytes %.32q",
					c.targets[0].Name, len(base.Data), base.Data, c.targets[i].Name, len(r.Data), r.Data)},
			}
		}
	}
	return nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckAndHashMajority is CheckAndHash with majority voting (§7 future
// work): with three or more targets, the per-target abstract hashes are
// grouped and targets outside the majority group are named. The combined
// hash is always computed over all targets in order.
func (c *Checker) CheckAndHashMajority(op string) (*Discrepancy, abstraction.State, errno.Errno) {
	if len(c.targets) < 3 {
		return c.CheckAndHash(op)
	}
	defer c.obsHub.StartTimed(obs.LayerChecker, "compare-majority", c.histCompare).End()
	hasher := md5.New()
	hashes := make([]abstraction.State, len(c.targets))
	records := make([][]abstraction.Record, len(c.targets))
	for i, t := range c.targets {
		recs, e := abstraction.Snapshot(c.k, t.MountPoint, c.opts)
		if e != errno.OK {
			return nil, abstraction.State{}, e
		}
		records[i] = recs
		hashes[i] = abstraction.HashRecords(recs, c.opts)
		hasher.Write(hashes[i][:])
	}
	var combined abstraction.State
	copy(combined[:], hasher.Sum(nil))

	groups := make(map[abstraction.State][]int)
	for i, h := range hashes {
		groups[h] = append(groups[h], i)
	}
	if len(groups) == 1 {
		return nil, combined, errno.OK
	}
	var majority abstraction.State
	majoritySize := 0
	for h, members := range groups {
		if len(members) > majoritySize {
			majority, majoritySize = h, len(members)
		}
	}
	var details []string
	if majoritySize*2 > len(c.targets) {
		ref := records[groups[majority][0]]
		refName := c.targets[groups[majority][0]].Name
		for h, members := range groups {
			if h == majority {
				continue
			}
			for _, i := range members {
				for _, d := range abstraction.Diff(ref, records[i], c.opts) {
					details = append(details, fmt.Sprintf("%s deviates from majority (%s): %s",
						c.targets[i].Name, refName, d))
				}
			}
		}
	} else {
		for _, members := range groups {
			names := make([]string, len(members))
			for j, i := range members {
				names[j] = c.targets[i].Name
			}
			details = append(details, fmt.Sprintf("no majority: %v share a state", names))
		}
	}
	sort.Strings(details)
	return &Discrepancy{Kind: "majority-vote", Op: op, Details: details}, combined, errno.OK
}

// CheckAndHash performs the post-operation state integrity check and
// returns the combined abstract state in one pass (one Algorithm-1
// traversal per target). The explorer calls this after every operation:
// the discrepancy (if any) is the bug report, and the hash keys the
// visited-state table.
func (c *Checker) CheckAndHash(op string) (*Discrepancy, abstraction.State, errno.Errno) {
	defer c.obsHub.StartTimed(obs.LayerChecker, "compare", c.histCompare).End()
	hasher := md5.New()
	var baseRecords []abstraction.Record
	for i, t := range c.targets {
		records, e := abstraction.Snapshot(c.k, t.MountPoint, c.opts)
		if e != errno.OK {
			return nil, abstraction.State{}, e
		}
		h := abstraction.HashRecords(records, c.opts)
		hasher.Write(h[:])
		if i == 0 {
			baseRecords = records
			continue
		}
		if details := abstraction.Diff(baseRecords, records, c.opts); len(details) > 0 {
			for j := range details {
				details[j] = fmt.Sprintf("%s vs %s: %s", c.targets[0].Name, t.Name, details[j])
			}
			return &Discrepancy{Kind: "abstract-state", Op: op, Details: details}, abstraction.State{}, errno.OK
		}
	}
	var combined abstraction.State
	copy(combined[:], hasher.Sum(nil))
	return nil, combined, errno.OK
}

// StateHash returns the combined abstract state across all targets (the
// MD5 of the per-target abstract hashes, in target order) — the same
// hash CheckAndHash returns, without the check. The explorer needs it
// only for its initial state, which no operation's check has walked.
func (c *Checker) StateHash() (abstraction.State, errno.Errno) {
	hasher := md5.New()
	for _, t := range c.targets {
		h, e := abstraction.Hash(c.k, t.MountPoint, c.opts)
		if e != errno.OK {
			return abstraction.State{}, e
		}
		hasher.Write(h[:])
	}
	var combined abstraction.State
	copy(combined[:], hasher.Sum(nil))
	return combined, errno.OK
}

// MaxEqualizationPad bounds how much padding EqualizeFreeSpace writes to
// any one target. File systems reporting effectively unlimited capacity
// (VeriFS1 deliberately has no data limit, §5) are left alone: the
// workaround exists to reconcile *comparable* block devices, and a
// bounded workload can never fill an unlimited store anyway.
const MaxEqualizationPad = 64 << 20

// EqualizeFreeSpace implements the §3.4 workaround for differing data
// capacities: it queries every target's free space, takes the smallest
// (S_L), and on each target with free space S_n writes a dummy file of
// S_n - S_L zero bytes, so all targets run out of space together.
func (c *Checker) EqualizeFreeSpace() errno.Errno {
	free := make([]int64, len(c.targets))
	minFree := int64(-1)
	for i, t := range c.targets {
		st, e := c.k.Statfs(t.MountPoint)
		if e != errno.OK {
			return e
		}
		free[i] = st.FreeBytes()
		if minFree < 0 || free[i] < minFree {
			minFree = free[i]
		}
	}
	for i, t := range c.targets {
		pad := free[i] - minFree
		if pad <= 0 || pad > MaxEqualizationPad {
			continue
		}
		path := t.MountPoint + "/" + DummyFileName
		fd, e := c.k.Open(path, vfs.OCreate|vfs.OWrOnly, 0600)
		if e != errno.OK {
			return e
		}
		const chunk = 64 * 1024
		zeros := make([]byte, chunk)
		for pad > 0 {
			n := pad
			if n > chunk {
				n = chunk
			}
			wrote, e := c.k.WriteFD(fd, zeros[:n])
			if e == errno.ENOSPC {
				// Metadata overhead ate the difference; close enough.
				break
			}
			if e != errno.OK {
				_ = c.k.Close(fd) // the write's errno is the result; close is cleanup
				return e
			}
			pad -= int64(wrote)
		}
		if e := c.k.Close(fd); e != errno.OK {
			return e
		}
	}
	return errno.OK
}
