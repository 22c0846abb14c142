package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The manifest is the segment engine's single commit point: a small
// checksummed file naming exactly the sealed segments and blob versions
// that constitute the store's durable state, replaced atomically
// (write-temp + fsync + rename + dir fsync) on every Commit, after every
// file it names has been fsynced. Recovery replays it and deletes every
// segment and blob file it does not name, so a crash at any instant
// leaves the store at the last committed checkpoint:
//
//   - crash mid-append / mid-seal / mid-sync: the new segment's and the
//     staged blobs' files exist but no manifest names them — recovery
//     discards them;
//   - crash mid-manifest-rename: the rename is atomic, so the old
//     manifest is still in place and the new state simply never
//     happened;
//   - crash mid-compaction: replacement segments not yet named are
//     discarded, victims still named are kept; after the rename the
//     victims are garbage files recovery removes.
//
// Refcounts drift after a segment is sealed (later checkpoints dedup
// against old chunks, Forget/rollback release them). The sealed index
// file is immutable, so the manifest carries a varint refcount override
// column for every segment whose counts diverged from seal time.
//
//	magic "DMan" (4) | version u8 (2) | gen uvarint | nextseg uvarint |
//	count uvarint | per segment, IDs strictly ascending:
//	    id delta-uvarint (first absolute, then gap to previous)
//	    datalen uvarint | idxsum u32 BE |
//	    override uvarint: 0 = none, else 1+len(refs)
//	    refs: len × uvarint, aligned with the index's fp-sorted rows
//	blob count uvarint | per blob, names strictly ascending:
//	    name len uvarint | name | version uvarint | crc32 (IEEE) u32 BE
//	crc32 (IEEE) of everything above, u32 big-endian
//
// Version 1 had no blob list; it is refused with its version error.
const (
	manifestMagic   = "DMan"
	manifestVersion = 2
	manifestName    = "MANIFEST"
	// manifestMinSeg is the least bytes one segment record can occupy,
	// bounding hostile count prefixes.
	manifestMinSeg = 1 + 1 + 4 + 1
	// manifestMinBlob is the least bytes one blob record can occupy.
	manifestMinBlob = 1 + 1 + 4
)

// manifestSeg is one sealed segment's durable record.
type manifestSeg struct {
	ID      uint64
	DataLen uint64
	IdxSum  uint32   // crc32 of the segment's index file bytes
	Refs    []uint32 // refcount override column; nil = seal-time counts current
}

// manifestBlob is one blob's durable record: which version file holds
// it, and the crc32 of its bytes.
type manifestBlob struct {
	Name    string
	Version uint64
	Sum     uint32
}

// manifest is the decoded durable state of a segment store.
type manifest struct {
	Gen     uint64         // commit generation, monotonically increasing
	NextSeg uint64         // lowest segment ID never yet allocated
	Segs    []manifestSeg  // ascending ID
	Blobs   []manifestBlob // ascending name
}

// encode marshals the manifest; output depends only on the field values
// (Segs must already be ID-sorted and Blobs name-sorted).
func (m *manifest) encode() []byte {
	buf := make([]byte, 0, 64+len(m.Segs)*16)
	buf = append(buf, manifestMagic...)
	buf = append(buf, manifestVersion)
	buf = binary.AppendUvarint(buf, m.Gen)
	buf = binary.AppendUvarint(buf, m.NextSeg)
	buf = binary.AppendUvarint(buf, uint64(len(m.Segs)))
	prev := uint64(0)
	for i, s := range m.Segs {
		if i == 0 {
			buf = binary.AppendUvarint(buf, s.ID)
		} else {
			buf = binary.AppendUvarint(buf, s.ID-prev)
		}
		prev = s.ID
		buf = binary.AppendUvarint(buf, s.DataLen)
		buf = binary.BigEndian.AppendUint32(buf, s.IdxSum)
		if s.Refs == nil {
			buf = binary.AppendUvarint(buf, 0)
		} else {
			buf = binary.AppendUvarint(buf, uint64(1+len(s.Refs)))
			for _, r := range s.Refs {
				buf = binary.AppendUvarint(buf, uint64(r))
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Blobs)))
	for _, b := range m.Blobs {
		buf = binary.AppendUvarint(buf, uint64(len(b.Name)))
		buf = append(buf, b.Name...)
		buf = binary.AppendUvarint(buf, b.Version)
		buf = binary.BigEndian.AppendUint32(buf, b.Sum)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeManifest unmarshals a manifest, enforcing the checksum, strict
// bounds on every count, ascending segment IDs and blob names, and full
// consumption.
func decodeManifest(data []byte) (*manifest, error) {
	const hdr = len(manifestMagic) + 1
	if len(data) < hdr+3+4 {
		return nil, fmt.Errorf("storage: manifest truncated (%d bytes)", len(data))
	}
	if string(data[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("storage: bad manifest magic")
	}
	if data[len(manifestMagic)] != manifestVersion {
		return nil, fmt.Errorf("storage: manifest version %d, want %d", data[len(manifestMagic)], manifestVersion)
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("storage: manifest checksum mismatch (%08x != %08x)", got, sum)
	}
	rest := body[hdr:]
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("storage: manifest %s truncated", what)
		}
		rest = rest[n:]
		return v, nil
	}
	m := &manifest{}
	var err error
	if m.Gen, err = next("generation"); err != nil {
		return nil, err
	}
	if m.NextSeg, err = next("nextseg"); err != nil {
		return nil, err
	}
	count, err := next("segment count")
	if err != nil {
		return nil, err
	}
	if count > uint64(len(rest))/manifestMinSeg {
		return nil, fmt.Errorf("storage: manifest claims %d segments for %d bytes", count, len(rest))
	}
	m.Segs = make([]manifestSeg, count)
	prev := uint64(0)
	for i := range m.Segs {
		s := &m.Segs[i]
		delta, err := next("segment id")
		if err != nil {
			return nil, err
		}
		if i == 0 {
			s.ID = delta
		} else {
			if delta == 0 {
				return nil, fmt.Errorf("storage: manifest segment IDs not strictly ascending at %d", i)
			}
			s.ID = prev + delta
			if s.ID < prev {
				return nil, fmt.Errorf("storage: manifest segment ID overflow at %d", i)
			}
		}
		prev = s.ID
		if s.DataLen, err = next("datalen"); err != nil {
			return nil, err
		}
		if len(rest) < 4 {
			return nil, fmt.Errorf("storage: manifest idxsum truncated at %d", i)
		}
		s.IdxSum = binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		override, err := next("override flag")
		if err != nil {
			return nil, err
		}
		if override > 0 {
			n := override - 1
			if n > uint64(len(rest)) {
				return nil, fmt.Errorf("storage: manifest claims %d refcounts for %d bytes", n, len(rest))
			}
			s.Refs = make([]uint32, n)
			for j := range s.Refs {
				v, err := next("refcount")
				if err != nil {
					return nil, err
				}
				if v > maxChunkRefs {
					return nil, fmt.Errorf("storage: manifest refcount %d out of range", v)
				}
				s.Refs[j] = uint32(v)
			}
		}
	}
	if m.NextSeg <= prev && count > 0 {
		return nil, fmt.Errorf("storage: manifest nextseg %d not above last segment %d", m.NextSeg, prev)
	}
	if count, err = next("blob count"); err != nil {
		return nil, err
	}
	if count > uint64(len(rest))/manifestMinBlob {
		return nil, fmt.Errorf("storage: manifest claims %d blobs for %d bytes", count, len(rest))
	}
	m.Blobs = make([]manifestBlob, count)
	for i := range m.Blobs {
		b := &m.Blobs[i]
		n, err := next("blob name length")
		if err != nil {
			return nil, err
		}
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("storage: manifest blob name of %d bytes for %d", n, len(rest))
		}
		b.Name, rest = string(rest[:n]), rest[n:]
		if i > 0 && b.Name <= m.Blobs[i-1].Name {
			return nil, fmt.Errorf("storage: manifest blob names not strictly ascending at %d", i)
		}
		if b.Version, err = next("blob version"); err != nil {
			return nil, err
		}
		if len(rest) < 4 {
			return nil, fmt.Errorf("storage: manifest blob sum truncated at %d", i)
		}
		b.Sum, rest = binary.BigEndian.Uint32(rest), rest[4:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("storage: %d trailing bytes after manifest", len(rest))
	}
	return m, nil
}

// readManifest loads and decodes the manifest at path. A missing file is
// an empty store, not an error.
func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &manifest{NextSeg: 1}, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeManifest(data)
}

// atomicWriteFile replaces the file at path so that a reader, even after
// a crash, sees the old content or the new and never a mix: the bytes go
// to a temporary file that is fsynced and renamed over path, and the
// directory is fsynced so the rename survives a power cut. crash(label)
// fires between the sync and the rename. It is how the manifest, the
// engine's one commit point, is written; recovery removes a stale
// temporary file.
func atomicWriteFile(path string, data []byte, crash func(string), label string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("storage: write %s: %w", tmp, err)
	}
	if err := syncPath(tmp); err != nil {
		return err
	}
	crash(label)
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: rename %s: %w", path, err)
	}
	return syncPath(filepath.Dir(path))
}

// syncPath fsyncs a file, or a directory so the entries created, renamed
// or unlinked in it are durable.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: open %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: sync %s: %w", path, err)
	}
	return nil
}
