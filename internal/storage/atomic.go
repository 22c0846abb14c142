package storage

import (
	"fmt"
	"os"
	"path/filepath"
)

// atomicWriteFile persists data at path with full crash durability: the
// bytes are written to a temporary file in the same directory, fsynced,
// renamed over the target, and the directory is fsynced so the rename
// itself survives a power cut. A concurrent or post-crash reader never
// observes a half-written file — it sees either the old content or the
// new — which is the primitive the segment engine builds its commit
// protocol on (blobs, segment indexes and the manifest).
//
// crash, when non-nil, is the deterministic fault-injection hook of the
// crash-consistency matrix: it is invoked with label after the temp file
// is durable but before the rename — the window in which a kill must
// leave the previous content intact.
func atomicWriteFile(path string, data []byte, perm os.FileMode, crash func(string), label string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: close %s: %w", tmp, err)
	}
	if crash != nil {
		crash(label)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: rename %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename or unlink inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync dir %s: %w", dir, err)
	}
	return nil
}

// fileBlobs is the named-blob side of the segment engine: small
// metadata blobs (recipes, gc lists, restore hints) as individual files
// under dir, each written atomically. Blob names may contain '/'
// separators; they map to subdirectories.
type fileBlobs struct {
	dir   string
	crash func(string) // crash-injection hook threaded into atomic writes
}

func (b fileBlobs) path(name string) string {
	return filepath.Join(b.dir, filepath.FromSlash(name))
}

func (b fileBlobs) put(name string, data []byte) error {
	path := b.path(name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("storage: blob dir for %q: %w", name, err)
	}
	if err := atomicWriteFile(path, data, 0o644, b.crash, "blob-rename"); err != nil {
		return fmt.Errorf("storage: write blob %q: %w", name, err)
	}
	return nil
}

func (b fileBlobs) get(name string) ([]byte, error) {
	buf, err := os.ReadFile(b.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("blob %q: %w", name, ErrNotFound)
		}
		return nil, err
	}
	return buf, nil
}

// sweepTmp removes stale .tmp files left by a crash between the temp
// write and the rename of an atomic write, recursively under dir.
func sweepTmp(dir string) {
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".tmp" {
			os.Remove(path)
		}
		return nil
	})
}
