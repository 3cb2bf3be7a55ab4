// Package wal is the durable control plane's storage layer: a
// write-ahead log of per-round decisions (participant draws, seals,
// releases, round-finish records — indices and scalars only, never
// gradient payloads) plus whole-state snapshots, both CRC-framed with
// the same length-prefixed little-endian discipline as the transport
// wire codec.
//
// A log is a flat file of frames
//
//	[len u32][crc u32][body: type u8 | record fields]
//
// where len counts the body bytes and crc is the Castagnoli CRC-32 of
// the body. Appends are single write(2) calls, so a crash between
// record boundaries leaves at worst one torn frame at the tail.
// Open distinguishes the two corruption classes: a torn final frame is
// the expected crash artifact and is repaired (truncated) when the
// caller opts in; a bad CRC on a complete frame, a frame that claims
// more bytes than a non-final position holds, or a RunStart from a
// different run are real corruption and error out so recovery never
// proceeds from a lying log.
//
// Snapshots record each rng stream as a position, never as generator
// state: CountingSource is this package's own copy of Go 1's math/rand
// source — rand.NewSource's stream, bit for bit — that counts its draws,
// and a restart re-seeds it and discards as many.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Corruption and mismatch errors surfaced by Open and the snapshot
// loaders. They wrap context but stay errors.Is-able.
var (
	// ErrCorrupt marks a frame whose CRC does not match its body, or a
	// record body that does not decode.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrTorn marks a final frame with fewer bytes than its header
	// claims — the signature of a crash mid-append. Open repairs it
	// only when asked to.
	ErrTorn = errors.New("wal: torn tail")
	// ErrRunMismatch marks a log or snapshot whose RunStart belongs to
	// a different run than the caller expects.
	ErrRunMismatch = errors.New("wal: run id mismatch")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is [len u32][crc u32].
const frameHeader = 8

// maxRecord bounds a single record body; control-plane records are
// index lists and scalars, so anything past this is corruption, not a
// legitimate record.
const maxRecord = 1 << 28

// Log is an append-only record log. Append is single-writer;
// concurrent appenders must serialize externally (the coordinator's
// round loop is the only writer).
type Log struct {
	f   *os.File
	buf []byte // encode scratch, reused so Append is 0 allocs/op warm
}

// Create starts a fresh log at path (truncating any previous file) and
// writes the RunStart record that every later Open validates against.
func Create(path string, rs RunStart) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f}
	if err := l.Append(&rs); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Open replays an existing log, validates its RunStart against runID
// (0 skips the check), and returns the log positioned for appending
// plus every decoded record. With repairTail set, a torn final frame is
// truncated away and replay succeeds without it; otherwise a torn tail
// is an error. Mid-log truncation, CRC mismatches, and undecodable
// bodies always error.
func Open(path string, runID uint64, repairTail bool) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	recs, good, err := decodeAll(data)
	if err != nil {
		if errors.Is(err, ErrTorn) && repairTail {
			if terr := f.Truncate(int64(good)); terr != nil {
				f.Close()
				return nil, nil, terr
			}
		} else {
			f.Close()
			return nil, nil, err
		}
	}
	if len(recs) == 0 {
		f.Close()
		return nil, nil, fmt.Errorf("%w: log %s holds no complete record", ErrCorrupt, path)
	}
	rs, ok := recs[0].(*RunStart)
	if !ok {
		f.Close()
		return nil, nil, fmt.Errorf("%w: log %s does not begin with RunStart", ErrCorrupt, path)
	}
	if runID != 0 && rs.RunID != runID {
		f.Close()
		return nil, nil, fmt.Errorf("%w: log %s belongs to run %#x, want %#x", ErrRunMismatch, path, rs.RunID, runID)
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{f: f}, recs, nil
}

// decodeAll walks the frames in data, returning the decoded records and
// the byte offset of the last cleanly-framed record.
func decodeAll(data []byte) (recs []Record, good int, err error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeader {
			return recs, off, fmt.Errorf("%w: %d trailing header bytes at offset %d", ErrTorn, len(rest), off)
		}
		n := int(binary.LittleEndian.Uint32(rest))
		crc := binary.LittleEndian.Uint32(rest[4:])
		if n <= 0 || n > maxRecord {
			return recs, off, fmt.Errorf("%w: frame at offset %d claims %d bytes", ErrCorrupt, off, n)
		}
		if len(rest) < frameHeader+n {
			return recs, off, fmt.Errorf("%w: frame at offset %d claims %d bytes, %d remain", ErrTorn, off, n, len(rest)-frameHeader)
		}
		body := rest[frameHeader : frameHeader+n]
		if crc32.Checksum(body, crcTable) != crc {
			return recs, off, fmt.Errorf("%w: crc mismatch at offset %d", ErrCorrupt, off)
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return recs, off, fmt.Errorf("%w: offset %d: %v", ErrCorrupt, off, err)
		}
		recs = append(recs, rec)
		off += frameHeader + n
	}
	return recs, off, nil
}

// Append frames and writes one record. The write is a single write(2)
// call; durability to the platter additionally needs Sync, which the
// coordinator invokes at decision boundaries rather than per append.
func (l *Log) Append(r Record) error {
	b := l.buf[:0]
	if cap(b) < frameHeader {
		b = make([]byte, 0, 512)
	}
	b = b[:frameHeader] // header patched after the body is known
	b = appendRecord(b, r)
	body := b[frameHeader:]
	binary.LittleEndian.PutUint32(b, uint32(len(body)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(body, crcTable))
	l.buf = b
	_, err := l.f.Write(b)
	return err
}

// Sync flushes the log to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close syncs and closes the underlying file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
