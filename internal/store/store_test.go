package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// syncEvery makes every append durable immediately — recovery tests want no
// batching window.
var syncEvery = Options{SyncInterval: -1}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func rec(kind string, i int) Record {
	return Record{Kind: kind, Payload: []byte(fmt.Sprintf(`{"n":%d,"pad":"%032d"}`, i, i))}
}

func appendN(t *testing.T, s *Store, kind string, n int) []Record {
	t.Helper()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = rec(kind, i)
		if err := s.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

func wantRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: got %s %q, want %s %q",
				i, got[i].Kind, got[i].Payload, want[i].Kind, want[i].Payload)
		}
	}
}

func journalPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "journal-*.pdpj"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("journal files %v (err %v), want exactly one", matches, err)
	}
	return matches[0]
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, syncEvery)
	want := appendN(t, s, "run", 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, syncEvery)
	wantRecords(t, s2.TakeRecovered(), want)
	if again := s2.TakeRecovered(); again != nil {
		t.Fatalf("second TakeRecovered returned %d records, want nil", len(again))
	}
	st := s2.Stats()
	if st.RecoveredEntries != 20 || st.TruncatedTails != 0 || st.CorruptFrames != 0 {
		t.Fatalf("stats %+v, want 20 clean recovered entries", st)
	}
}

// TestCrashMidAppend simulates a kill -9 at every byte of the final frame:
// whatever the torn tail looks like, recovery returns exactly the records
// whose frames completed, and the next generation appends cleanly.
func TestCrashMidAppend(t *testing.T) {
	// Build a reference journal to learn the frame boundaries.
	refDir := t.TempDir()
	ref := mustOpen(t, refDir, syncEvery)
	want := appendN(t, ref, "run", 3)
	ref.Close()
	full, err := os.ReadFile(journalPath(t, refDir))
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := len(encodeFrame(want[2]))
	cutStart := len(full) - lastFrame

	for cut := cutStart + 1; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir, syncEvery)
		wantRecords(t, s.TakeRecovered(), want[:2])
		st := s.Stats()
		if st.TruncatedTails != 1 {
			t.Fatalf("cut at %d: truncated tails %d, want 1", cut, st.TruncatedTails)
		}
		if st.DroppedBytes != uint64(cut-cutStart) {
			t.Fatalf("cut at %d: dropped %d bytes, want %d", cut, st.DroppedBytes, cut-cutStart)
		}
		// The journal was cut back to the last intact frame, so appending
		// and re-recovering yields the two survivors plus the new record.
		extra := rec("run", 99)
		if err := s.Append(extra); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s2 := mustOpen(t, dir, syncEvery)
		wantRecords(t, s2.TakeRecovered(), append(append([]Record(nil), want[:2]...), extra))
		s2.Close()
	}
}

// TestTruncatedTail: a file ending inside the frame header (fewer than 8
// bytes of trailing garbage) is cut back without losing intact frames.
func TestTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, syncEvery)
	want := appendN(t, s, "run", 5)
	s.Close()

	jp := journalPath(t, dir)
	full, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jp, append(full, 0x42, 0x42, 0x42), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, syncEvery)
	wantRecords(t, s2.TakeRecovered(), want)
	if st := s2.Stats(); st.TruncatedTails != 1 || st.DroppedBytes != 3 {
		t.Fatalf("stats %+v, want one truncated tail of 3 bytes", st)
	}
}

// TestCorruptCRCFrame: a bit flip inside a frame drops that frame and
// everything after it (bytes past damage in an append-only file cannot be
// trusted), keeps everything before it, and counts the corruption.
func TestCorruptCRCFrame(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, syncEvery)
	want := appendN(t, s, "run", 4)
	s.Close()

	jp := journalPath(t, dir)
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the third frame.
	off := 0
	for i := 0; i < 2; i++ {
		off += len(encodeFrame(want[i]))
	}
	data[off+frameHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(jp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, syncEvery)
	wantRecords(t, s2.TakeRecovered(), want[:2])
	st := s2.Stats()
	if st.CorruptFrames != 1 || st.TruncatedTails != 1 {
		t.Fatalf("stats %+v, want one corrupt frame in one cut tail", st)
	}
}

// TestSnapshotJournalReplayEquivalence: compacting must not change what
// recovery returns — snapshot+empty-journal and pure-journal histories
// recover to identical record sets, and post-compaction appends land after
// the snapshot's records.
func TestSnapshotJournalReplayEquivalence(t *testing.T) {
	plain := t.TempDir()
	s1 := mustOpen(t, plain, syncEvery)
	want := appendN(t, s1, "run", 10)
	s1.Close()

	compacted := t.TempDir()
	s2 := mustOpen(t, compacted, syncEvery)
	appendN(t, s2, "run", 10)
	if err := s2.Compact(want); err != nil {
		t.Fatal(err)
	}
	if got := s2.JournalBytes(); got != 0 {
		t.Fatalf("journal %d bytes after compaction, want 0", got)
	}
	tail := rec("sweep", 100)
	if err := s2.Append(tail); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	r1 := mustOpen(t, plain, syncEvery)
	r2 := mustOpen(t, compacted, syncEvery)
	got1, got2 := r1.TakeRecovered(), r2.TakeRecovered()
	wantRecords(t, got1, want)
	wantRecords(t, got2, append(append([]Record(nil), want...), tail))

	// Only one generation of files survives a compaction.
	files, err := os.ReadDir(compacted)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		names := make([]string, len(files))
		for i, f := range files {
			names[i] = f.Name()
		}
		t.Fatalf("files after compaction: %v, want one snapshot + one journal", names)
	}
}

// TestCompactDropsDeadRecords: records omitted from the live set are gone
// after recovery — compaction is the store's only deletion mechanism.
func TestCompactDropsDeadRecords(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, syncEvery)
	all := appendN(t, s, "run", 6)
	live := all[3:]
	if err := s.Compact(live); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir, syncEvery)
	wantRecords(t, s2.TakeRecovered(), live)
	if st := s2.Stats(); st.RecoveredEntries != 3 {
		t.Fatalf("recovered %d entries, want 3", st.RecoveredEntries)
	}
}

// TestFailedCompactionKeepsAppends: a compaction that cannot open its new
// journal installs nothing, so records appended after the failure land in
// the generation recovery reads and survive a restart.
func TestFailedCompactionKeepsAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, syncEvery)
	all := appendN(t, s, "run", 3)
	squat := filepath.Join(dir, journalName(1))
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(all[1:]); err == nil {
		t.Fatal("Compact succeeded with a directory squatting on its new journal")
	}
	if st := s.Stats(); st.Compactions != 0 {
		t.Fatalf("%d compactions counted after a failed one", st.Compactions)
	}
	tail := rec("sweep", 100)
	if err := s.Append(tail); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir, syncEvery)
	wantRecords(t, s2.TakeRecovered(), append(all, tail))
}

// TestDamagedSnapshotFailsOpen: a newest snapshot that no longer decodes
// fails Open with an error naming it. Compact removed the older
// generations' journals, so no older state is complete enough to fall back
// to.
func TestDamagedSnapshotFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, syncEvery)
	all := appendN(t, s, "run", 4)
	for _, live := range [][]Record{all[1:], all[2:]} {
		if err := s.Compact(live); err != nil {
			t.Fatal(err)
		}
	}
	appendN(t, s, "sweep", 1)
	s.Close()

	snap := filepath.Join(dir, snapshotName(2))
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s2, err := Open(dir, syncEvery); err == nil {
		s2.Close()
		t.Fatal("Open recovered a store whose newest snapshot is damaged")
	} else if !strings.Contains(err.Error(), snapshotName(2)) {
		t.Fatalf("Open error %q does not name the damaged snapshot", err)
	}
}

// tornJournal stands in for the journal: each write lands half the frame
// on disk and then fails, as a full disk would; truncErr, when set, fails
// the cut back too.
type tornJournal struct {
	*os.File
	truncErr error
}

func (j *tornJournal) Write(b []byte) (int, error) {
	n, _ := j.File.Write(b[:len(b)/2])
	return n, errors.New("no space left on device")
}

func (j *tornJournal) Truncate(size int64) error {
	if j.truncErr != nil {
		return j.truncErr
	}
	return j.File.Truncate(size)
}

// tearAppends makes s's appends write half a frame and fail until the
// returned func puts the real journal back.
func tearAppends(s *Store, truncErr error) (restore func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.journal.(*os.File)
	s.journal = &tornJournal{File: f, truncErr: truncErr}
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.journal = f
	}
}

// TestFailedAppendKeepsLaterAppends: an append that leaves half a frame
// behind is cut back to the last frame edge, so an append after it is
// recovered and recovery finds no torn frame.
func TestFailedAppendKeepsLaterAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, syncEvery)
	a := appendN(t, s, "run", 1)
	restore := tearAppends(s, nil)
	if err := s.Append(rec("run", 1)); err == nil {
		t.Fatal("torn append reported success")
	}
	restore()
	b := rec("run", 2)
	if err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir, syncEvery)
	wantRecords(t, s2.TakeRecovered(), append(a, b))
	if st := s2.Stats(); st.TruncatedTails != 0 || st.CorruptFrames != 0 {
		t.Fatalf("recovery found %d torn tail(s), %d corrupt frame(s); want none", st.TruncatedTails, st.CorruptFrames)
	}
}

// TestUncutAppendFailsStore: when the torn frame cannot be cut off, the
// store refuses every later append until it is reopened, and the reopened
// store recovers what came before the failure and appends again.
func TestUncutAppendFailsStore(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, syncEvery)
	a := appendN(t, s, "run", 1)
	restore := tearAppends(s, errors.New("read-only file system"))
	if err := s.Append(rec("run", 1)); err == nil {
		t.Fatal("torn append reported success")
	}
	restore()
	if err := s.Append(rec("run", 2)); err == nil || !strings.Contains(err.Error(), "failed until reopened") {
		t.Fatalf("append on a failed store: err %v, want a refusal", err)
	}
	s.Close()

	s2 := mustOpen(t, dir, syncEvery)
	wantRecords(t, s2.TakeRecovered(), a)
	if st := s2.Stats(); st.TruncatedTails != 1 {
		t.Fatalf("recovery cut %d torn tail(s), want 1", st.TruncatedTails)
	}
	b := rec("run", 3)
	if err := s2.Append(b); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := mustOpen(t, dir, syncEvery)
	wantRecords(t, s3.TakeRecovered(), append(a, b))
}

// TestBatchedSyncFlushes: with a batching interval, appends become durable
// without an explicit Sync once the flusher has run.
func TestBatchedSyncFlushes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SyncInterval: 5 * time.Millisecond})
	want := appendN(t, s, "run", 3)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, dir, syncEvery)
	wantRecords(t, s2.TakeRecovered(), want)
}

// TestEmptyAndMissingDir: opening a fresh directory recovers nothing and
// works immediately.
func TestEmptyAndMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	s := mustOpen(t, dir, syncEvery)
	if got := s.TakeRecovered(); len(got) != 0 {
		t.Fatalf("fresh store recovered %d records", len(got))
	}
	appendN(t, s, "run", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
}
