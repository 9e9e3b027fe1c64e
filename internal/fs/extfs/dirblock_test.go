package extfs

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mcfs/internal/blockdev"
	"mcfs/internal/errno"
)

// refDirent, refParseDirBlock and refEncode are the reference the
// in-place directory code is judged against: the parse of a block into
// entries and the re-encode of an entry list into a fresh zero block
// that every directory edit once went through.
type refDirent struct {
	ino  uint32
	name string
}

func refParseDirBlock(buf []byte) []refDirent {
	var out []refDirent
	le := binary.LittleEndian
	pos := 0
	for pos+direntHeader <= BlockSize {
		ino := le.Uint32(buf[pos:])
		if ino == 0 {
			break
		}
		nameLen := int(le.Uint16(buf[pos+4:]))
		if pos+direntHeader+nameLen > BlockSize {
			break
		}
		out = append(out, refDirent{ino: ino, name: string(buf[pos+direntHeader : pos+direntHeader+nameLen])})
		pos += direntHeader + nameLen
	}
	return out
}

func refEncode(entries []refDirent) []byte {
	nb := make([]byte, BlockSize)
	pos := 0
	for _, de := range entries {
		pos += encodeDirent(nb[pos:], de.ino, de.name)
	}
	return nb
}

// scannedEntries lists what the scanner yields over buf.
func scannedEntries(buf []byte) []refDirent {
	var out []refDirent
	for s := scanDirBlock(buf); s.next(); {
		out = append(out, refDirent{ino: s.ino, name: string(s.name)})
	}
	return out
}

// Shapes of a random directory block.
const (
	shapePacked      = iota // entries, then zeros
	shapeFull               // entries to the last byte, or a short non-zero tail
	shapeGarbage            // entries, a zero inode, then random bytes
	shapeNameOverrun        // entries, then a header whose name runs past the block
	numShapes
)

// randDirBlock builds a 1 KiB directory block of the given shape and the
// names worth looking up in it: every name it packs (duplicates, "." and
// ".." among them), names past its terminator, and names it lacks.
func randDirBlock(r *rand.Rand, shape int) ([]byte, []string) {
	buf := make([]byte, BlockSize)
	var names []string
	randName := func(maxLen int) string {
		switch {
		case r.Intn(8) == 0:
			return "."
		case r.Intn(8) == 0:
			return ".."
		case len(names) > 0 && r.Intn(6) == 0:
			if n := names[r.Intn(len(names))]; len(n) <= maxLen {
				return n // a duplicate: the first one wins
			}
		}
		b := make([]byte, 1+r.Intn(maxLen))
		for i := range b {
			b[i] = "ab.-_x\x00\xff"[r.Intn(8)]
		}
		return string(b)
	}
	limit := BlockSize
	if shape == shapePacked || shape == shapeGarbage || shape == shapeNameOverrun {
		limit = direntHeader + r.Intn(BlockSize-2*direntHeader-16)
	}
	pos := 0
	for {
		room := limit - pos - direntHeader
		if room < 1 {
			break
		}
		name := randName(min(room, 24))
		if shape == shapeFull && room-len(name) < direntHeader+1 && r.Intn(2) == 0 {
			// Stretch this entry to the block's last byte.
			b := make([]byte, room)
			for i := range b {
				b[i] = 'z'
			}
			name = string(b)
		}
		pos += encodeDirent(buf[pos:], 1+uint32(r.Intn(200)), name)
		names = append(names, name)
	}
	switch shape {
	case shapeFull:
		for i := pos; i < BlockSize; i++ {
			buf[i] = byte(1 + r.Intn(255)) // too short for an entry
		}
	case shapeGarbage:
		// The terminator, then bytes that would parse as entries.
		r.Read(buf[pos+4:])
		ghost := randName(8)
		if pos+4+direntHeader+len(ghost) <= BlockSize {
			encodeDirent(buf[pos+4:], 7, ghost)
			names = append(names, ghost)
		}
	case shapeNameOverrun:
		binary.LittleEndian.PutUint32(buf[pos:], 9)
		binary.LittleEndian.PutUint16(buf[pos+4:], uint16(BlockSize-pos-direntHeader+1+r.Intn(600)))
		r.Read(buf[pos+direntHeader:])
		names = append(names, string(buf[pos+direntHeader:pos+direntHeader+1]))
	}
	names = append(names, "", "absent", "..."+fmt.Sprint(r.Intn(100)))
	return buf, names
}

// dirBlockRig is a volume with one directory whose only block is staged
// with the bytes under test.
type dirBlockRig struct {
	f   *FS
	dir *cachedInode
	blk uint32
}

func newDirBlockRig(t *testing.T) *dirBlockRig {
	t.Helper()
	dev := blockdev.NewRAM("ram0", 256*1024, nil)
	if err := Mkfs(dev, MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	f, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	ino, e := f.Mkdir(f.Root(), "d", 0755, 0, 0)
	if e != errno.OK {
		t.Fatal(e)
	}
	dir := f.getInode(uint32(ino))
	return &dirBlockRig{f: f, dir: dir, blk: dir.direct[0]}
}

// checkDirBlock compares the directory code over buf with the reference:
// the scanner's entries, blockUsed, and for every name findEntry's
// answer and the block removeDirEntry and replaceDirEntry leave staged.
func (g *dirBlockRig) checkDirBlock(t *testing.T, buf []byte, names []string) {
	t.Helper()
	want := refParseDirBlock(buf)
	if got := scannedEntries(buf); !slices.Equal(got, want) {
		t.Fatalf("scanner entries %q, reference %q", got, want)
	}
	used := 0
	for _, de := range want {
		used += direntLen(de.name)
	}
	if got := blockUsed(buf); got != used {
		t.Fatalf("blockUsed %d, reference %d", got, used)
	}
	for _, name := range names {
		i := slices.IndexFunc(want, func(de refDirent) bool { return de.name == name })
		g.f.writeMetaBlock(g.blk, buf)
		ino, blk, found, e := g.f.findEntry(g.dir, name)
		switch {
		case e != errno.OK:
			t.Fatalf("findEntry(%q): %v", name, e)
		case found != (i >= 0):
			t.Fatalf("findEntry(%q) found %v, reference %v", name, found, i >= 0)
		case found && (ino != want[i].ino || blk != g.blk):
			t.Fatalf("findEntry(%q) = ino %d in block %d, reference ino %d in block %d", name, ino, blk, want[i].ino, g.blk)
		}

		e = g.f.removeDirEntry(g.dir, name)
		wantBlock := buf
		if i >= 0 {
			wantBlock = refEncode(slices.Delete(slices.Clone(want), i, i+1))
		}
		g.expectStaged(t, fmt.Sprintf("removeDirEntry(%q)", name), e, i >= 0, wantBlock)

		g.f.writeMetaBlock(g.blk, buf)
		newIno := 1000 + uint32(len(name))
		e = g.f.replaceDirEntry(g.dir, name, newIno)
		wantBlock = buf
		if i >= 0 {
			patched := slices.Clone(want)
			patched[i].ino = newIno
			wantBlock = refEncode(patched)
		}
		g.expectStaged(t, fmt.Sprintf("replaceDirEntry(%q)", name), e, i >= 0, wantBlock)
	}
}

func (g *dirBlockRig) expectStaged(t *testing.T, call string, e errno.Errno, found bool, want []byte) {
	t.Helper()
	wantE := errno.ENOENT
	if found {
		wantE = errno.OK
	}
	if e != wantE {
		t.Fatalf("%s: %v, want %v", call, e, wantE)
	}
	if got := g.f.dirtyMeta[g.blk]; !slices.Equal(got, want) {
		t.Fatalf("%s left\n%x\nreference\n%x", call, got, want)
	}
}

// TestDirBlockScanMatchesReference: over random blocks of every shape —
// packed, full to the last byte, garbage after the terminator, a name
// running past the block — the scanner, blockUsed, findEntry and the two
// in-place edits agree with the parse-and-re-encode reference, byte for
// byte.
func TestDirBlockScanMatchesReference(t *testing.T) {
	g := newDirBlockRig(t)
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		shape := int(seed) % numShapes
		buf, names := randDirBlock(r, shape)
		t.Run(fmt.Sprintf("seed%d-shape%d", seed, shape), func(t *testing.T) {
			g.checkDirBlock(t, buf, names)
		})
	}
}

// FuzzDirBlock is TestDirBlockScanMatchesReference over any bytes: the
// input, cut or zero-padded to a block, and one extra name to look up.
func FuzzDirBlock(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		buf, names := randDirBlock(rand.New(rand.NewSource(int64(shape))), shape)
		f.Add(buf, names[0])
	}
	f.Fuzz(func(t *testing.T, in []byte, name string) {
		buf := make([]byte, BlockSize)
		copy(buf, in)
		names := []string{name}
		for _, de := range refParseDirBlock(buf) {
			names = append(names, de.name)
		}
		newDirBlockRig(t).checkDirBlock(t, buf, names)
	})
}
