// Package store is the daemon's durability layer: an append-only journal of
// opaque records with a snapshot written at each compaction, so a restarted
// pdpad recovers every completed run byte for byte.
//
// The on-disk model is the classic log-plus-snapshot pair:
//
//   - snapshot-<gen>.pdps holds the complete live record set as of the
//     moment it was written (produced by Compact, installed by atomic
//     rename, so a half-written snapshot never bears the final name);
//   - journal-<gen>.pdpj holds every record appended since that snapshot.
//
// Both files use the same CRC-framed binary format (see journal.go).
// Recovery loads the newest snapshot, then replays its journal; a torn or
// corrupt journal tail — the expected wreckage of a kill -9 mid-append — is
// detected by the frame CRCs, cut off at the last intact frame, and counted,
// never fatal. A newest snapshot that fails to decode is fatal: Open
// returns an error naming it, since Compact has removed the journals that
// would complete any older generation. Appends reach the OS immediately
// and are fsynced in batches (SyncInterval), trading a bounded window of
// recent records against per-append fsync latency; Sync forces the batch
// out.
//
// The store knows nothing about what a record means: callers tag each
// payload with a Kind and interpret recovered records themselves (the pool's
// schema lives in runqueue/persist.go). Compact rewrites the files from the
// caller-supplied live set, which is how superseded records are dropped.
// The store keeps no compaction bound of its own: the caller decides when,
// from what it knows is garbage (the run ledger, runqueue/ledger.go,
// compacts once the journaled bytes it knows are dead reach the live ones).
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one durable entry: a short kind tag plus an opaque payload the
// caller encodes and decodes.
type Record struct {
	Kind    string
	Payload []byte
}

// Options parameterize Open. The zero value gets sensible defaults.
type Options struct {
	// SyncInterval is how long appended records may sit unfsynced before the
	// background flusher forces them to disk (default 50 ms). Zero keeps the
	// default; negative disables batching and fsyncs every append.
	SyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SyncInterval == 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	return o
}

// Stats is a consistent snapshot of the store's counters. All fields are
// monotone over the store's lifetime (recovery counters are set once by
// Open).
type Stats struct {
	// AppendedEntries and AppendedBytes count journal writes since Open,
	// frame overhead included.
	AppendedEntries uint64
	AppendedBytes   uint64
	// Fsyncs counts batched journal fsyncs.
	Fsyncs uint64
	// Compactions counts completed compactions (snapshot installed,
	// journal reset, old generation gone).
	Compactions uint64
	// RecoveredEntries and RecoveredBytes describe what Open read back.
	RecoveredEntries uint64
	RecoveredBytes   uint64
	// TruncatedTails counts journal tails cut off during recovery (torn
	// final frames from a crash mid-append); DroppedBytes is how many bytes
	// they held. CorruptFrames counts frames dropped for a CRC mismatch.
	TruncatedTails uint64
	DroppedBytes   uint64
	CorruptFrames  uint64
}

// Store is an open journal+snapshot pair. Create with Open; Append, Sync,
// Compact, and Stats are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	gen       uint64
	journal   journalFile
	jbytes    int64 // current journal size, frames included
	dirty     bool  // appended since the last fsync
	closed    bool
	failed    error // a torn frame could not be cut off; appends refused
	recovered []Record

	flushWake chan struct{}
	flushDone chan struct{}

	appended   atomic.Uint64
	appendedB  atomic.Uint64
	fsyncs     atomic.Uint64
	compacts   atomic.Uint64
	recEntries uint64
	recBytes   uint64
	truncTails uint64
	truncBytes uint64
	corrupt    uint64
}

// journalFile is what the store does with its open journal; *os.File in
// production, a failing stand-in in tests.
type journalFile interface {
	Write(b []byte) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

func snapshotName(gen uint64) string { return fmt.Sprintf("snapshot-%06d.pdps", gen) }
func journalName(gen uint64) string  { return fmt.Sprintf("journal-%06d.pdpj", gen) }

// parseGen extracts the generation number from a snapshot/journal file name,
// reporting ok=false for foreign files.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open opens (creating if needed) the store rooted at dir and recovers its
// records: the newest snapshot, then that generation's journal, with any
// torn tail cut off and counted. A newest snapshot that fails to decode
// fails Open with an error naming it. The recovered records are retrieved
// once with TakeRecovered.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		flushWake: make(chan struct{}, 1),
		flushDone: make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	go s.flusher()
	return s, nil
}

// recover loads the newest snapshot plus its journal and opens the journal
// for appending.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	var snapGens []uint64
	for _, e := range entries {
		if gen, ok := parseGen(e.Name(), "snapshot-", ".pdps"); ok {
			snapGens = append(snapGens, gen)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })

	// Only the newest snapshot counts: Compact removed every older
	// generation's journal, so an older snapshot would silently drop
	// everything journaled since it. A snapshot is written whole and
	// renamed into place, so one that fails to load means the medium was
	// damaged, and Open refuses the store rather than serve a stale one.
	s.gen = 0
	var recs []Record
	if len(snapGens) > 0 {
		s.gen = snapGens[0]
		path := filepath.Join(s.dir, snapshotName(s.gen))
		res, err := decodeFile(path)
		if err == nil && (res.truncated || res.corrupt) {
			err = fmt.Errorf("%d damaged byte(s) after %d intact", res.droppedBytes, res.goodBytes)
		}
		if err != nil {
			return fmt.Errorf("store: snapshot %s is damaged: %w", path, err)
		}
		recs = res.records
		s.recBytes += uint64(res.goodBytes)
	}

	jpath := filepath.Join(s.dir, journalName(s.gen))
	if res, err := decodeFile(jpath); err == nil {
		recs = append(recs, res.records...)
		s.recBytes += uint64(res.goodBytes)
		if res.truncated || res.corrupt {
			// Torn tail from a crash mid-append: cut the journal back to the
			// last intact frame so future appends start from a clean edge.
			s.truncTails++
			s.truncBytes += uint64(res.droppedBytes)
			if res.corrupt {
				s.corrupt++
			}
			if err := os.Truncate(jpath, res.goodBytes); err != nil {
				return fmt.Errorf("store: truncating torn journal tail: %w", err)
			}
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("store: reading journal: %w", err)
	}
	s.recEntries = uint64(len(recs))
	s.recovered = recs

	f, err := os.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening journal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: stat journal: %w", err)
	}
	s.journal = f
	s.jbytes = info.Size()
	return nil
}

// TakeRecovered returns the records recovered at Open and releases them; the
// second call returns nil.
func (s *Store) TakeRecovered() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.recovered
	s.recovered = nil
	return recs
}

// Append writes one record to the journal. The write reaches the OS before
// Append returns; the fsync is batched (see Options.SyncInterval).
//
// A failed write may leave part of a frame in the journal, which recovery
// would stop at, dropping every later record. Append therefore cuts the
// journal back to its last frame edge before returning the error, so the
// next append starts clean. If that cut fails too, the store is failed: it
// refuses every later append until it is reopened, whose recovery cuts the
// torn tail off.
func (s *Store) Append(rec Record) error {
	frame := encodeFrame(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append after close")
	}
	if s.failed != nil {
		return s.failed
	}
	if _, err := s.journal.Write(frame); err != nil {
		if terr := s.journal.Truncate(s.jbytes); terr != nil {
			s.failed = fmt.Errorf("store: failed until reopened: cutting a torn append back: %w", terr)
		}
		return fmt.Errorf("store: appending: %w", err)
	}
	s.jbytes += int64(len(frame))
	s.appended.Add(1)
	s.appendedB.Add(uint64(len(frame)))
	if s.opts.SyncInterval < 0 {
		s.fsyncs.Add(1)
		return s.journal.Sync()
	}
	s.dirty = true
	select {
	case s.flushWake <- struct{}{}:
	default:
	}
	return nil
}

// flusher is the background fsync batcher: woken by the first append of a
// batch, it sleeps one SyncInterval — absorbing every append that lands in
// the window — then syncs once.
func (s *Store) flusher() {
	defer close(s.flushDone)
	for range s.flushWake {
		time.Sleep(s.opts.SyncInterval)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.syncLocked()
		s.mu.Unlock()
	}
}

func (s *Store) syncLocked() {
	if !s.dirty || s.journal == nil {
		return
	}
	s.dirty = false
	s.fsyncs.Add(1)
	s.journal.Sync()
}

// Sync forces any batched appends to disk before returning.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.syncLocked()
	return nil
}

// JournalBytes reports the current journal size.
func (s *Store) JournalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jbytes
}

// Compact replaces the store's contents with live: the records are written
// to a fresh snapshot (fsynced), a new empty journal generation is created,
// the snapshot is atomically renamed into place, and the previous
// generation's files are removed. Records not in live are thereby dropped —
// that is how the caller expires superseded entries. On error nothing is
// installed and appends keep landing in the current generation.
func (s *Store) Compact(live []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: compact after close")
	}
	newGen := s.gen + 1
	snapPath := filepath.Join(s.dir, snapshotName(newGen))
	tmp := snapPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot tmp: %w", err)
	}
	for _, rec := range live {
		if _, err := f.Write(encodeFrame(rec)); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("store: writing snapshot: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	// The new journal exists before the snapshot is installed, so install
	// and switch cannot come apart: a failure up to the rename leaves the
	// store appending to its current generation, and a stray empty journal
	// of a generation never installed is never read (the next compaction
	// truncates it).
	jpath := filepath.Join(s.dir, journalName(newGen))
	nj, err := os.OpenFile(jpath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: new journal: %w", err)
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		nj.Close()
		os.Remove(jpath)
		os.Remove(tmp)
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	// The new journal's entry and the rename reach the disk before the old
	// generation goes, so no crash can leave neither generation.
	s.syncDir()

	// The snapshot now owns everything; retire the old generation. A crash
	// from here on recovers from the new snapshot and its empty journal.
	s.syncLocked()
	s.journal.Close()
	os.Remove(filepath.Join(s.dir, journalName(s.gen)))
	os.Remove(filepath.Join(s.dir, snapshotName(s.gen)))
	s.syncDir()
	s.journal = nj
	s.jbytes = 0
	s.dirty = false
	s.gen = newGen
	s.compacts.Add(1)
	return nil
}

// syncDir fsyncs the store's directory, making the file creations,
// renames and removals before it durable. It is best effort: a failure
// leaves them as durable as the file system made them on its own.
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close syncs and closes the journal and stops the background flusher. The
// store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.syncLocked()
	err := s.journal.Close()
	s.journal = nil
	close(s.flushWake)
	s.mu.Unlock()
	<-s.flushDone
	return err
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	rec, recB := s.recEntries, s.recBytes
	tails, dropped, corrupt := s.truncTails, s.truncBytes, s.corrupt
	s.mu.Unlock()
	return Stats{
		AppendedEntries:  s.appended.Load(),
		AppendedBytes:    s.appendedB.Load(),
		Fsyncs:           s.fsyncs.Load(),
		Compactions:      s.compacts.Load(),
		RecoveredEntries: rec,
		RecoveredBytes:   recB,
		TruncatedTails:   tails,
		DroppedBytes:     dropped,
		CorruptFrames:    corrupt,
	}
}
