package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// collect reads every record from seq 1.
func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var got [][]byte
	err := l.ReadFrom(1, func(seq uint64, payload []byte) error {
		if want := uint64(len(got) + 1); seq != want {
			t.Fatalf("record seq %d, want %d", seq, want)
		}
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	return got
}

func payloads(n int) [][]byte {
	rng := rand.New(rand.NewSource(7))
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 1+rng.Intn(200))
		rng.Read(p)
		out[i] = p
	}
	return out
}

func TestLogAppendReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(50)
	for i, p := range want {
		seq, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if got := collect(t, l); len(got) != 50 {
		t.Fatalf("read %d records before close", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 50 {
		t.Fatalf("LastSeq after reopen = %d, want 50", l2.LastSeq())
	}
	got := collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i+1)
		}
	}
	// Appends continue after the last recovered record.
	if seq, err := l2.Append([]byte("after")); err != nil || seq != 51 {
		t.Fatalf("append after reopen: seq %d err %v", seq, err)
	}
}

func TestLogSegmentRollAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(40)
	for _, p := range want {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(l.segments); n < 3 {
		t.Fatalf("expected multiple segments, got %d", n)
	}
	// Prune everything at or below the penultimate segment's last record.
	cut := l.segments[len(l.segments)-1] - 1
	if err := l.PruneThrough(cut); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	err = l.ReadFrom(cut+1, func(seq uint64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if wantN := 40 - int(cut); len(got) != wantN {
		t.Fatalf("post-prune suffix has %d records, want %d", len(got), wantN)
	}
	for i, p := range got {
		if !bytes.Equal(p, want[int(cut)+i]) {
			t.Fatalf("suffix record %d mismatch", i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen still works over the pruned log.
	l2, err := OpenLog(dir, Options{Sync: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 40 {
		t.Fatalf("LastSeq = %d after prune+reopen, want 40", l2.LastSeq())
	}
}

// lastSegment returns the path of the newest segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	best := ""
	var bestSeq uint64
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok && seq >= bestSeq {
			best, bestSeq = filepath.Join(dir, e.Name()), seq
		}
	}
	if best == "" {
		t.Fatal("no segment files")
	}
	return best
}

func TestLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(10)
	for _, p := range want {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: garbage after the last valid record.
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	before := walTruncated.Value()
	l2, err := OpenLog(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if walTruncated.Value() != before+1 {
		t.Fatalf("wal.truncated_tails did not advance")
	}
	if l2.LastSeq() != 10 {
		t.Fatalf("LastSeq = %d, want 10", l2.LastSeq())
	}
	if got := collect(t, l2); len(got) != 10 {
		t.Fatalf("read %d records, want 10", len(got))
	}
}

func TestLogCorruptLastRecordDropped(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(5) {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the final record's payload: its CRC must reject it.
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d, want 4 (corrupt record dropped)", l2.LastSeq())
	}
	// The log stays appendable and the new record takes the freed seq.
	if seq, err := l2.Append([]byte("replacement")); err != nil || seq != 5 {
		t.Fatalf("append after corruption: seq %d err %v", seq, err)
	}
}

// TestLogTornTailRandomCuts hammers the decoder: a valid log cut at every
// interesting byte offset must recover exactly the records that lie fully
// before the cut, and stay appendable.
func TestLogTornTailRandomCuts(t *testing.T) {
	base := t.TempDir()
	src := filepath.Join(base, "src")
	l, err := OpenLog(src, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(12)
	var ends []int64 // byte offset of each record's end
	off := int64(0)
	for _, p := range want {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		off += headerSize + int64(len(p))
		ends = append(ends, off)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(lastSegment(t, src))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	cuts := map[int64]bool{0: true, int64(len(raw)): true}
	for _, e := range ends {
		cuts[e] = true   // exactly at a boundary
		cuts[e-1] = true // one byte short
		cuts[e-headerSize] = true
	}
	for i := 0; i < 40; i++ {
		cuts[int64(rng.Intn(len(raw)+1))] = true
	}
	for cut := range cuts {
		if cut < 0 {
			continue
		}
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lc, err := OpenLog(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		complete := 0
		for _, e := range ends {
			if e <= cut {
				complete++
			}
		}
		if got := int(lc.LastSeq()); got != complete {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, got, complete)
		}
		got := collect(t, lc)
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut %d: record %d mismatch", cut, i+1)
			}
		}
		if _, err := lc.Append([]byte("continue")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		lc.Close()
	}
}

// FuzzScanRecords feeds arbitrary bytes to the record decoder: it must
// never panic, never report more valid bytes than it was given, and
// rescanning the valid prefix must reproduce the same records.
func FuzzScanRecords(f *testing.F) {
	// Seed with a valid two-record log plus mutations.
	dir := f.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNone})
	if err != nil {
		f.Fatal(err)
	}
	l.Append([]byte(`{"op":"demo","table":"cars"}`))
	l.Append([]byte(`{"op":"select","predicate":"Year = 2005"}`))
	l.Close()
	raw, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-3])
	f.Add([]byte{})
	mut := append([]byte(nil), raw...)
	mut[5] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		var first [][]byte
		valid, next, err := scanRecords(bytes.NewReader(data), 1, func(seq uint64, p []byte) error {
			first = append(first, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("scan returned error without fn error: %v", err)
		}
		if valid > int64(len(data)) {
			t.Fatalf("valid %d > input %d", valid, len(data))
		}
		if int(next-1) != len(first) {
			t.Fatalf("next %d but %d records", next, len(first))
		}
		var second [][]byte
		valid2, _, _ := scanRecords(bytes.NewReader(data[:valid]), 1, func(seq uint64, p []byte) error {
			second = append(second, append([]byte(nil), p...))
			return nil
		})
		if valid2 != valid || len(second) != len(first) {
			t.Fatalf("rescan of valid prefix: %d bytes/%d records, want %d/%d",
				valid2, len(second), valid, len(first))
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("record %d differs on rescan", i)
			}
		}
	})
}
