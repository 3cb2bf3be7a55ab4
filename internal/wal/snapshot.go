// Snapshots: whole-state checkpoints that bound how much replay a
// restart pays for. A snapshot is a single CRC-framed file written via
// temp+rename, so a crash mid-write never shadows the previous good
// snapshot. Contents are generic containers the writer maps its state
// onto: vectors (model params, per-client residual accumulators),
// integers (rng stream positions, round clock bits), floats, and
// opaque blobs (controller/strategy state).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Snapshot is one whole-state checkpoint at the end of Round.
type Snapshot struct {
	RunID  uint64
	Round  int
	Vecs   [][]float64
	Ints   []int64
	Floats []float64
	Blobs  [][]byte
}

const snapMagic = "flsnap1\n"

func snapName(round int) string { return fmt.Sprintf("snap-%09d.bin", round) }

// WriteSnapshot persists s into dir under a name ordered by round,
// atomically (temp file + rename).
func WriteSnapshot(dir string, s *Snapshot) error {
	b := []byte(snapMagic)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // crc+len placeholder
	body := appendU64(nil, s.RunID)
	body = appendU64(body, uint64(int64(s.Round)))
	body = appendU64(body, uint64(len(s.Vecs)))
	for _, v := range s.Vecs {
		body = appendF64s(body, v)
	}
	body = appendI64s(body, s.Ints)
	body = appendF64s(body, s.Floats)
	body = appendU64(body, uint64(len(s.Blobs)))
	for _, blob := range s.Blobs {
		body = appendU64(body, uint64(len(blob)))
		body = append(body, blob...)
	}
	binary.LittleEndian.PutUint32(b[len(snapMagic):], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[len(snapMagic)+4:], crc32.Checksum(body, crcTable))
	b = append(b, body...)

	tmp := filepath.Join(dir, ".snap.tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, snapName(s.Round)))
}

// ReadSnapshot loads and validates one snapshot file. runID 0 skips the
// run check.
func ReadSnapshot(path string, runID uint64) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+frameHeader || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: %s is not a snapshot", ErrCorrupt, path)
	}
	n := int(binary.LittleEndian.Uint32(data[len(snapMagic):]))
	crc := binary.LittleEndian.Uint32(data[len(snapMagic)+4:])
	body := data[len(snapMagic)+frameHeader:]
	if n != len(body) {
		return nil, fmt.Errorf("%w: %s claims %d body bytes, holds %d", ErrTorn, path, n, len(body))
	}
	if crc32.Checksum(body, crcTable) != crc {
		return nil, fmt.Errorf("%w: %s crc mismatch", ErrCorrupt, path)
	}
	r := recReader{b: body}
	s := &Snapshot{RunID: r.u64(), Round: r.i()}
	nv := r.count()
	for i := 0; i < nv && !r.bad; i++ {
		s.Vecs = append(s.Vecs, r.f64s())
	}
	s.Ints = r.i64s()
	s.Floats = r.f64s()
	nb := r.count() // each blob holds at least its 8-byte length
	for i := 0; i < nb && !r.bad; i++ {
		bl := r.i()
		if bl < 0 || bl > len(r.b) {
			r.bad = true
			break
		}
		s.Blobs = append(s.Blobs, append([]byte(nil), r.b[:bl]...))
		r.b = r.b[bl:]
	}
	if r.bad || len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %s malformed body", ErrCorrupt, path)
	}
	if runID != 0 && s.RunID != runID {
		return nil, fmt.Errorf("%w: snapshot %s belongs to run %#x, want %#x", ErrRunMismatch, path, s.RunID, runID)
	}
	return s, nil
}

// LatestSnapshot returns the newest valid snapshot in dir for runID, or
// (nil, nil) when the directory holds none. A corrupt or foreign-run
// newest snapshot is an error, not silently skipped: recovering from an
// older checkpoint than the operator believes exists is how silent
// divergence starts.
func LatestSnapshot(dir string, runID uint64) (*Snapshot, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && len(e.Name()) == len(snapName(0)) && e.Name()[:5] == "snap-" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	return ReadSnapshot(filepath.Join(dir, names[len(names)-1]), runID)
}
