package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Backend stores encoded snapshots by id. Implementations must be safe for
// concurrent use; ids are short path-safe strings chosen by the caller.
type Backend interface {
	// Put stores (or replaces) one snapshot.
	Put(id string, data []byte) error
	// Get retrieves one snapshot; it returns an error for unknown ids.
	Get(id string) ([]byte, error)
	// List returns the stored ids in lexical order.
	List() ([]string, error)
	// Delete removes one snapshot; deleting an unknown id is not an error
	// (retention GC must be idempotent across crashes).
	Delete(id string) error
}

// Memory is the in-memory backend used by tests and benchmarks.
type Memory struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemory creates an empty in-memory backend.
func NewMemory() *Memory { return &Memory{m: map[string][]byte{}} }

// Put implements Backend.
func (b *Memory) Put(id string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[id] = append([]byte(nil), data...)
	return nil
}

// Get implements Backend.
func (b *Memory) Get(id string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.m[id]
	if !ok {
		return nil, fmt.Errorf("snapshot: unknown id %q", id)
	}
	return append([]byte(nil), data...), nil
}

// Delete implements Backend.
func (b *Memory) Delete(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.m, id)
	return nil
}

// List implements Backend.
func (b *Memory) List() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]string, 0, len(b.m))
	for id := range b.m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// dirExt is the file extension of directory-backend snapshots.
const dirExt = ".snap"

// Dir is the file-based backend: one <id>.snap file per snapshot under a
// directory, written atomically (temp file + rename) so a crash mid-write
// never leaves a truncated snapshot behind.
type Dir struct {
	Path string
}

// NewDir creates (if needed) and wraps a snapshot directory.
func NewDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: create dir: %w", err)
	}
	return &Dir{Path: path}, nil
}

func (b *Dir) file(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || id == "." || id == ".." {
		return "", fmt.Errorf("snapshot: invalid id %q", id)
	}
	return filepath.Join(b.Path, id+dirExt), nil
}

// Put implements Backend. The data is fsynced before the rename and the
// directory fsynced after it, so the guarantee holds across machine
// crashes too: a snapshot either exists complete under its final name or
// not at all, and a successful Put survives power loss.
func (b *Dir) Put(id string, data []byte) error {
	path, err := b.file(id)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(b.Path, id+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	dir, err := os.Open(b.Path)
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// Get implements Backend.
func (b *Dir) Get(id string) ([]byte, error) {
	path, err := b.file(id)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read %q: %w", id, err)
	}
	return data, nil
}

// Delete implements Backend. No directory fsync: deletion durability is
// not a correctness requirement — a crash may resurrect deleted garbage,
// but retention re-collects it idempotently and restore prefers the most
// self-contained form, whereas Put's fsync (a snapshot must exist
// completely or not at all) is load-bearing. Skipping it keeps a GC pass
// over k files from paying k directory syncs.
func (b *Dir) Delete(id string) error {
	path, err := b.file(id)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// List implements Backend.
func (b *Dir) List() ([]string, error) {
	entries, err := os.ReadDir(b.Path)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, dirExt) {
			ids = append(ids, strings.TrimSuffix(name, dirExt))
		}
	}
	sort.Strings(ids)
	return ids, nil
}
