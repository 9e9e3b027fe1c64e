package extfs

import (
	"encoding/binary"
	"fmt"

	"mcfs/internal/blockdev"
)

// The journal gives extfs its "ext4" personality: metadata updates are
// written to a dedicated region and committed before being checkpointed
// into their home locations, so a crash between commit and checkpoint is
// repaired at the next mount by replaying the committed transaction.
//
// The format is a single-transaction physical journal: a descriptor block
// listing target block numbers, followed by the logged block images, then
// a commit block. checkpointDone invalidates the descriptor once the
// in-place writes finish. This is a deliberately minimal jbd2.
const (
	jMagicDesc   = 0x4A444553 // "JDES"
	jMagicCommit = 0x4A434D54 // "JCMT"
)

type journal struct {
	dev   blockdev.Device
	start uint32 // first journal block
	size  uint32 // journal length in blocks
	seq   uint32
	bufs  *mountBufs // desc and commit blocks; scratch during replay

	// commitFirst is the seeded ordering bug (see MountOpts): when set,
	// commit() writes the descriptor and commit record before the logged
	// images, so a crash in between makes replay apply garbage.
	commitFirst bool
}

// zeroBlock is the all-zero block image every zeroing write sends.
var zeroBlock [BlockSize]byte

// maxLoggedBlocks is the transaction capacity: one descriptor block, one
// commit block, the rest data.
func (j *journal) maxLoggedBlocks() int { return int(j.size) - 2 }

// commit logs one transaction, the full block images of writes: the
// descriptor, the images, and the commit record. After commit returns nil
// the transaction is durable. The images are written from writes' own
// buffers; nothing is copied.
func (j *journal) commit(writes []blockWrite) error {
	if len(writes) > j.maxLoggedBlocks() {
		return fmt.Errorf("extfs: transaction too large: %d blocks > %d", len(writes), j.maxLoggedBlocks())
	}
	j.seq++
	le := binary.LittleEndian

	desc := j.bufs.desc[:]
	clear(desc)
	le.PutUint32(desc[0:], jMagicDesc)
	le.PutUint32(desc[4:], j.seq)
	le.PutUint32(desc[8:], uint32(len(writes)))
	for i, w := range writes {
		le.PutUint32(desc[12+4*i:], w.blk)
	}
	commit := j.bufs.commit[:]
	clear(commit)
	le.PutUint32(commit[0:], jMagicCommit)
	le.PutUint32(commit[4:], j.seq)

	if j.commitFirst {
		// Seeded bug: descriptor and commit reach the device before the
		// images they vouch for. A crash inside this window makes the next
		// mount replay whatever stale bytes sit in the journal data area.
		if err := j.dev.WriteAt(desc, int64(j.start)*BlockSize); err != nil {
			return err
		}
		if err := j.dev.WriteAt(commit, int64(j.start+1+uint32(len(writes)))*BlockSize); err != nil {
			return err
		}
		for i, w := range writes {
			if err := j.dev.WriteAt(w.data, int64(j.start+1+uint32(i))*BlockSize); err != nil {
				return err
			}
		}
		return nil
	}

	// Data images first, then descriptor, then commit: the descriptor
	// going down before data would let replay apply torn data.
	for i, w := range writes {
		if err := j.dev.WriteAt(w.data, int64(j.start+1+uint32(i))*BlockSize); err != nil {
			return err
		}
	}
	if err := j.dev.WriteAt(desc, int64(j.start)*BlockSize); err != nil {
		return err
	}
	return j.dev.WriteAt(commit, int64(j.start+1+uint32(len(writes)))*BlockSize)
}

// checkpointDone invalidates the journal after the in-place writes have
// landed.
func (j *journal) checkpointDone() error {
	return j.dev.WriteAt(zeroBlock[:], int64(j.start)*BlockSize)
}

// replay applies a committed-but-not-checkpointed transaction found in
// the journal region, then invalidates it. Called during Mount.
func (j *journal) replay() error {
	le := binary.LittleEndian
	desc := j.bufs.desc[:]
	if err := j.dev.ReadAt(desc, int64(j.start)*BlockSize); err != nil {
		return err
	}
	if le.Uint32(desc[0:]) != jMagicDesc {
		return nil // empty or invalidated journal
	}
	seq := le.Uint32(desc[4:])
	n := le.Uint32(desc[8:])
	if int(n) > j.maxLoggedBlocks() {
		return fmt.Errorf("extfs: corrupt journal descriptor: %d blocks", n)
	}
	commit := j.bufs.commit[:]
	if err := j.dev.ReadAt(commit, int64(j.start+1+n)*BlockSize); err != nil {
		return err
	}
	if le.Uint32(commit[0:]) != jMagicCommit || le.Uint32(commit[4:]) != seq {
		// Uncommitted transaction: discard it (the crash happened before
		// commit, so the old on-disk state is the consistent one).
		return j.checkpointDone()
	}
	img := j.bufs.scratch[:] // the file system reads nothing before replay ends
	for i := uint32(0); i < n; i++ {
		target := le.Uint32(desc[12+4*i:])
		if err := j.dev.ReadAt(img, int64(j.start+1+i)*BlockSize); err != nil {
			return err
		}
		if err := j.dev.WriteAt(img, int64(target)*BlockSize); err != nil {
			return err
		}
	}
	if j.seq < seq {
		j.seq = seq
	}
	return j.checkpointDone()
}
