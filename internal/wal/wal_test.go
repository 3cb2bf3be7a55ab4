package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

func testRecords() []Record {
	return []Record{
		&RunStart{RunID: 0xfeed, Kind: 2, Conf: []int64{20000, 500, 10, 32, 4, 1}},
		&Draw{Round: 1, Members: []int{0, 3, 7}},
		&Seal{Round: 1, Loss: 0.75, Scale: 0.01, Bits: 8, Elems: 4, Members: []int{5, 9, 11, 40}, Spans: []int{0, 2, 4}},
		&Release{Round: 1, Loss: 0.75, Elems: 4},
		&Finish{Round: 1, Ints: []int64{4, 500}, Floats: []float64{0.75, 1.25}},
	}
}

func writeLog(t testing.TB, path string) []Record {
	t.Helper()
	recs := testRecords()
	l, err := Create(path, *recs[0].(*RunStart))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[1:] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestLogRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	want := writeLog(t, path)

	l, got, err := Open(path, 0xfeed, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %#v\nwant %#v", got, want)
	}
	// The reopened log appends cleanly after the existing tail.
	if err := l.Append(&Finish{Round: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err = Open(path, 0xfeed, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 {
		t.Fatalf("got %d records after append, want %d", len(got), len(want)+1)
	}
}

func TestLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	want := writeLog(t, path)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the final frame: a crash mid-append.
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, 0xfeed, false); !errors.Is(err, ErrTorn) {
		t.Fatalf("strict open of torn log: got %v, want ErrTorn", err)
	}
	l, got, err := Open(path, 0xfeed, true)
	if err != nil {
		t.Fatalf("repairing open of torn log: %v", err)
	}
	if len(got) != len(want)-1 {
		t.Fatalf("repaired replay kept %d records, want %d", len(got), len(want)-1)
	}
	// The repaired log must append cleanly where the torn frame was.
	if err := l.Append(want[len(want)-1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err = Open(path, 0xfeed, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-repair replay mismatch:\n got %#v\nwant %#v", got, want)
	}
}

func TestLogCorruption(t *testing.T) {
	dir := t.TempDir()
	t.Run("bad-crc", func(t *testing.T) {
		path := filepath.Join(dir, "crc.wal")
		writeLog(t, path)
		data, _ := os.ReadFile(path)
		data[len(data)/2] ^= 0xff
		os.WriteFile(path, data, 0o644)
		// A complete-but-lying frame is corruption even for the
		// repairing open: only torn tails are crash artifacts.
		for _, repair := range []bool{false, true} {
			if _, _, err := Open(path, 0xfeed, repair); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("repair=%v: got %v, want ErrCorrupt", repair, err)
			}
		}
	})
	t.Run("stale-run-id", func(t *testing.T) {
		path := filepath.Join(dir, "stale.wal")
		writeLog(t, path)
		if _, _, err := Open(path, 0xdead, true); !errors.Is(err, ErrRunMismatch) {
			t.Fatalf("got %v, want ErrRunMismatch", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		path := filepath.Join(dir, "empty.wal")
		os.WriteFile(path, nil, 0o644)
		if _, _, err := Open(path, 0, true); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("bogus-length", func(t *testing.T) {
		path := filepath.Join(dir, "len.wal")
		writeLog(t, path)
		data, _ := os.ReadFile(path)
		data[0], data[1], data[2], data[3] = 0xff, 0xff, 0xff, 0xff
		os.WriteFile(path, data, 0o644)
		if _, _, err := Open(path, 0xfeed, true); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// testSnapshot is the snapshot TestSnapshotRoundtrip writes at round.
func testSnapshot(round int) *Snapshot {
	return &Snapshot{
		RunID:  77,
		Round:  round,
		Vecs:   [][]float64{{1, 2, 3}, {0.5, float64(round)}},
		Ints:   []int64{int64(round) * 10, 42},
		Floats: []float64{3.25},
		Blobs:  [][]byte{{1, 2}, nil, []byte("ctrl")},
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	dir := t.TempDir()
	if s, err := LatestSnapshot(dir, 1); err != nil || s != nil {
		t.Fatalf("empty dir: got %v, %v", s, err)
	}
	for round := 1; round <= 3; round++ {
		if err := WriteSnapshot(dir, testSnapshot(round)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LatestSnapshot(dir, 77)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 3 || got.Vecs[1][1] != 3 || string(got.Blobs[2]) != "ctrl" || len(got.Blobs[1]) != 0 {
		t.Fatalf("latest snapshot mismatch: %#v", got)
	}

	// Corrupting the newest snapshot errors recovery rather than
	// silently falling back to an older state.
	path := filepath.Join(dir, snapName(3))
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0x40
	os.WriteFile(path, data, 0o644)
	if _, err := LatestSnapshot(dir, 77); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCorrupt", err)
	}
	os.Truncate(path, int64(len(data)-9))
	if _, err := ReadSnapshot(path, 77); !errors.Is(err, ErrTorn) {
		t.Fatalf("truncated snapshot: got %v, want ErrTorn", err)
	}
	writeLog(t, path) // overwrite with a non-snapshot file
	if _, err := ReadSnapshot(path, 77); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-snapshot file: got %v, want ErrCorrupt", err)
	}
	if err := WriteSnapshot(dir, &Snapshot{RunID: 9, Round: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := LatestSnapshot(dir, 77); !errors.Is(err, ErrRunMismatch) {
		t.Fatalf("foreign snapshot: got %v, want ErrRunMismatch", err)
	}
}

func TestCountingSourceResume(t *testing.T) {
	const seed = 421
	src := NewCountingSource(seed, 0)
	rng := rand.New(src)
	ref := rand.New(rand.NewSource(seed))

	// The wrapper is transparent: same stream as the unwrapped source
	// across the mixed draw kinds the engine uses.
	for i := 0; i < 50; i++ {
		if a, b := rng.Intn(1000), ref.Intn(1000); a != b {
			t.Fatalf("draw %d: wrapped %d != raw %d", i, a, b)
		}
		if a, b := rng.Float64(), ref.Float64(); a != b {
			t.Fatalf("draw %d: wrapped %g != raw %g", i, a, b)
		}
	}
	rng.Perm(17)
	ref.Perm(17)

	// Reseeking to Pos() resumes the identical stream.
	resumed := rand.New(NewCountingSource(seed, src.Pos()))
	for i := 0; i < 50; i++ {
		if a, b := resumed.Intn(1<<20), ref.Intn(1<<20); a != b {
			t.Fatalf("resumed draw %d: %d != %d", i, a, b)
		}
	}
}

// TestCountingSourceReset holds Reset to a fresh source: repositioned at
// pos, a zero CountingSource and one already seeded elsewhere both
// continue exactly as rand.NewSource(seed) advanced pos steps; streams
// interleaved through one source by Reset/Pos are the independent
// streams; and no Reset allocates, of a zero source or a seeded one.
func TestCountingSourceReset(t *testing.T) {
	const seed = 421
	// bound takes Int31n's rejection loop about half the time, so an
	// Intn consumes a variable number of steps.
	const bound = 1<<30 + 1
	for _, pos := range []uint64{0, 1, 607, 10_000} {
		for _, used := range []bool{false, true} {
			s := &CountingSource{}
			if used {
				s.Reset(seed+1, 0)
				s.Uint64()
			}
			s.Reset(seed, pos)
			ref := rand.NewSource(seed).(rand.Source64)
			for i := uint64(0); i < pos; i++ {
				ref.Uint64()
			}
			rng, refRng := rand.New(s), rand.New(ref)
			for i := 0; i < 1000; i++ {
				if a, b := s.Int63(), ref.Int63(); a != b {
					t.Fatalf("pos %d (seeded before: %v) Int63 %d: %d != %d", pos, used, i, a, b)
				}
				if a, b := s.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("pos %d (seeded before: %v) Uint64 %d: %d != %d", pos, used, i, a, b)
				}
				if a, b := rng.Intn(bound), refRng.Intn(bound); a != b {
					t.Fatalf("pos %d (seeded before: %v) Intn %d: %d != %d", pos, used, i, a, b)
				}
			}
		}
	}

	t.Run("interleaved", func(t *testing.T) {
		seeds := []int64{7, 8, 9}
		refs := make([]*rand.Rand, len(seeds))
		for i, sd := range seeds {
			refs[i] = rand.New(rand.NewSource(sd))
		}
		var s CountingSource
		rng := rand.New(&s)
		pos := make([]uint64, len(seeds))
		rejected := false
		for turn, x := range []int{0, 1, 0, 2, 1} { // A, B, A, C, B
			s.Reset(seeds[x], pos[x])
			const draws = 200
			for i := 0; i < draws; i++ {
				if a, b := rng.Intn(bound), refs[x].Intn(bound); a != b {
					t.Fatalf("turn %d stream %d draw %d: %d != %d", turn, x, i, a, b)
				}
			}
			rejected = rejected || s.Pos()-pos[x] > draws
			pos[x] = s.Pos()
		}
		if !rejected {
			t.Fatal("no Intn took the rejection loop: the row tests fixed-step draws only")
		}
	})

	t.Run("allocs", func(t *testing.T) {
		s := new(CountingSource)
		if n := testing.AllocsPerRun(20, func() { *s = CountingSource{}; s.Reset(seed, 607) }); n != 0 {
			t.Fatalf("Reset of a zero source allocated %.0f times, want 0", n)
		}
		if n := testing.AllocsPerRun(20, func() { s.Reset(seed, 607) }); n != 0 {
			t.Fatalf("Reset of a seeded source allocated %.0f times, want 0", n)
		}
	})
}

func TestRunID(t *testing.T) {
	if RunID(1) == RunID(2) {
		t.Fatal("distinct seeds must map to distinct run ids")
	}
	if RunID(7) != RunID(7) || RunID(7) == 0 {
		t.Fatal("run id must be stable and nonzero")
	}
}

// BenchmarkWALAppend gates the per-record append cost: encoding into
// the log's reused scratch plus one write(2), 0 allocs/op steady state.
func BenchmarkWALAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	l, err := Create(path, RunStart{RunID: 1, Kind: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	members := make([]int, 512)
	for i := range members {
		members[i] = i * 7
	}
	rec := &Seal{Round: 3, Loss: 0.5, Scale: 0.25, Bits: 8, Members: members, Spans: []int{0, 256, 512}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// frame appends body framed exactly as Log.Append writes it.
func frame(b, body []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(body, crcTable))
	return append(b, body...)
}

// frames re-frames decoded records.
func frames(recs []Record) []byte {
	var b []byte
	for _, r := range recs {
		b = frame(b, appendRecord(nil, r))
	}
	return b
}

// FuzzWALReader feeds arbitrary bytes to the log reader, both as a log
// and wrapped as the body of one well-framed record (a random log almost
// never carries a valid CRC, so this is what reaches the record
// decoder). The reader must never panic; the clean prefix it reports
// must re-frame, record by record, to exactly those bytes; a failure
// must be a torn tail or corruption; and a repairing Open must be
// idempotent — opening the repaired file again returns the same records
// and no error. Seeds are the logs of TestLogTornTail and
// TestLogCorruption, and their record bodies.
func FuzzWALReader(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	recs := writeLog(f, path)
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	badCRC, bogusLen := slices.Clone(clean), slices.Clone(clean)
	badCRC[len(badCRC)/2] ^= 0xff
	copy(bogusLen, []byte{0xff, 0xff, 0xff, 0xff})
	for _, seed := range [][]byte{clean, clean[:len(clean)-5], badCRC, bogusLen, nil} {
		f.Add(seed)
	}
	for _, r := range recs {
		f.Add(appendRecord(nil, r))
	}
	// A direct round's seal: the cut at rank 37 with two fill members.
	f.Add(appendRecord(nil, &Seal{Round: 2, Loss: 0.5, Scale: 0.125, Bits: 8, Kappa: 37, Elems: 1990,
		Members: []int{12, 19873}, Spans: []int{0, 1, 2}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, log := range [][]byte{data, frame(nil, data)} {
			recs, good, err := decodeAll(log)
			switch {
			case good < 0 || good > len(log):
				t.Fatalf("clean prefix %d outside [0, %d]", good, len(log))
			case err == nil && good != len(log):
				t.Fatalf("no error, but only %d of %d bytes are clean", good, len(log))
			case err != nil && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt):
				t.Fatalf("error %v is neither torn nor corrupt", err)
			}
			if !bytes.Equal(frames(recs), log[:good]) {
				t.Fatalf("the %d decoded records do not re-frame to the %d-byte clean prefix", len(recs), good)
			}
		}
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, first, err := Open(path, 0, true)
		if err != nil {
			return // corrupt, or not a log: nothing was repaired
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, again, err := Open(path, 0, true)
		if err != nil {
			t.Fatalf("re-opening a repaired log: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frames(first), frames(again)) {
			t.Fatalf("re-opening a repaired log replayed %d records, the repair %d", len(again), len(first))
		}
	})
}

// FuzzSnapshot feeds arbitrary bytes to ReadSnapshot through a file, both
// raw and as the body of a well-formed header (magic, length, CRC — a
// random file almost never carries a valid CRC, so this is what reaches
// the body decoder). The reader must never panic or allocate beyond a
// small multiple of the file; an error must be torn, corrupt or a run
// mismatch; and a snapshot it accepts must re-write through
// WriteSnapshot to the same bytes, and be refused for another run. Seeds
// are the snapshots TestSnapshotRoundtrip writes, whole and as bodies.
func FuzzSnapshot(f *testing.F) {
	dir := f.TempDir()
	for _, s := range []*Snapshot{testSnapshot(1), testSnapshot(3), {RunID: 9, Round: 4}} {
		if err := WriteSnapshot(dir, s); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, snapName(s.Round)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[len(snapMagic)+frameHeader:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.bin")
		for _, file := range [][]byte{data, frame([]byte(snapMagic), data)} {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := ReadSnapshot(path, 0)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(file))+1<<16 {
				t.Fatalf("reading a %d-byte snapshot allocated %d bytes", len(file), grew)
			}
			if err != nil {
				if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrRunMismatch) {
					t.Fatalf("error %v is neither torn, corrupt nor a run mismatch", err)
				}
				continue
			}
			out := t.TempDir()
			if err := WriteSnapshot(out, s); err != nil {
				t.Fatal(err)
			}
			again, err := os.ReadFile(filepath.Join(out, snapName(s.Round)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, file) {
				t.Fatalf("an accepted %d-byte snapshot re-writes to %d different bytes", len(file), len(again))
			}
			if other := s.RunID + 1; other != 0 {
				if _, err := ReadSnapshot(path, other); !errors.Is(err, ErrRunMismatch) {
					t.Fatalf("reading run %#x's snapshot as run %#x: got %v, want ErrRunMismatch", s.RunID, other, err)
				}
			}
		}
	})
}
