package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func replayAll(t *testing.T, path string) ([][]byte, int64) {
	t.Helper()
	var out [][]byte
	size, err := Replay(path, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out, size
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.wal")
	w, err := OpenWriter(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i*7)))
		want = append(want, p)
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, size := replayAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if size != fi.Size() {
		t.Fatalf("valid size %d != file size %d", size, fi.Size())
	}
}

func TestReplayMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	recs, size := replayAll(t, filepath.Join(dir, "missing.wal"))
	if len(recs) != 0 || size != 0 {
		t.Fatalf("missing file: %d records, size %d", len(recs), size)
	}
	empty := filepath.Join(dir, "empty.wal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, size = replayAll(t, empty)
	if len(recs) != 0 || size != 0 {
		t.Fatalf("empty file: %d records, size %d", len(recs), size)
	}
}

// TestReplaySizesBufferToLog: replaying a header-only log, as a store's
// start does more than once, allocates a buffer the size of the log, not
// the 1 MiB one a long log reads through.
func TestReplaySizesBufferToLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "header.wal")
	w, err := OpenWriter(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recs, size := replayAll(t, path)
	runtime.ReadMemStats(&m1)
	if len(recs) != 0 || size != headerSize {
		t.Fatalf("header-only log: %d records, size %d", len(recs), size)
	}
	if d := m1.TotalAlloc - m0.TotalAlloc; d >= 64<<10 {
		t.Fatalf("replaying a header-only log allocated %d bytes, want < 64 KiB", d)
	}
}

func TestReplayRejectsBadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(path, func([]byte) error { return nil }); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// A torn tail — truncation anywhere inside the last record — must replay the
// intact prefix, and reopening at the returned size must restore a log that
// appends cleanly.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.wal")
	w, err := OpenWriter(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := len(full) - 1; cut > headerSize; cut -= 7 {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, size := replayAll(t, path)
		if size > int64(cut) {
			t.Fatalf("cut %d: valid size %d beyond file", cut, size)
		}
		// Reopen, append one more record, and verify the log replays the
		// prefix plus the new record.
		w, err := OpenWriter(path, size, false)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := w.Append([]byte("appended-after-tear")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs2, _ := replayAll(t, path)
		if len(recs2) != len(recs)+1 {
			t.Fatalf("cut %d: %d records after reappend, want %d", cut, len(recs2), len(recs)+1)
		}
		if string(recs2[len(recs2)-1]) != "appended-after-tear" {
			t.Fatalf("cut %d: tail record corrupted", cut)
		}
		// Restore the original for the next iteration's baseline.
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A bit flip in the final record's payload must drop that record (CRC), not
// fail the log; a flip in an earlier record is pre-tail corruption and also
// simply ends replay there — everything before it survives.
func TestCorruptPayloadEndsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crc.wal")
	w, err := OpenWriter(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, path)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records past a corrupt tail, want 2", len(recs))
	}
}

func TestImplausibleLengthIsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "len.wal")
	w, err := OpenWriter(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A frame claiming a multi-GB payload.
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, _ := replayAll(t, path)
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
}

// TestEveryOffsetTruncation writes interleaved records of very different
// sizes (mimicking small user-append records between large batch records),
// truncates at EVERY byte offset, and asserts Replay returns exactly the
// maximal prefix of complete records — computed independently from the known
// framing (8-byte header, then 8-byte frame + payload per record).
func TestEveryOffsetTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mixed.wal")
	w, err := OpenWriter(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	sizes := []int{200, 3, 17, 450, 1, 90, 8, 300}
	for i, n := range sizes {
		p := bytes.Repeat([]byte{byte('a' + i)}, n)
		payloads = append(payloads, p)
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries from the framing contract.
	bounds := []int64{headerSize}
	for _, p := range payloads {
		bounds = append(bounds, bounds[len(bounds)-1]+int64(frameSize)+int64(len(p)))
	}
	if bounds[len(bounds)-1] != int64(len(full)) {
		t.Fatalf("framing arithmetic off: computed end %d, file %d", bounds[len(bounds)-1], len(full))
	}

	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Expected: all records whose frame ends at or before the cut.
		wantN := 0
		for wantN < len(payloads) && bounds[wantN+1] <= int64(cut) {
			wantN++
		}
		recs, size := replayAll(t, path)
		if len(recs) != wantN {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(recs), wantN)
		}
		for i := 0; i < wantN; i++ {
			if !bytes.Equal(recs[i], payloads[i]) {
				t.Fatalf("cut %d: record %d corrupted", cut, i)
			}
		}
		wantSize := int64(0)
		if cut >= headerSize {
			wantSize = bounds[wantN]
		}
		if size != wantSize {
			t.Fatalf("cut %d: valid size %d, want %d", cut, size, wantSize)
		}
	}
}

func TestAppendRejectsOversizedPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.wal")
	w, err := OpenWriter(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}
