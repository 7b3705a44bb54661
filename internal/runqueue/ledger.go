package runqueue

import (
	"cmp"
	"container/list"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"pdpasim/internal/obs"
	"pdpasim/internal/store"
)

// LedgerConfig sets where a Ledger journals its runs, and the hooks for the
// steps each backend takes its own way.
type LedgerConfig[R any] struct {
	// Kind is a run's record kind, DelKind that of the record erasing a
	// forgotten run; both are required, so recovery never brings back a run
	// the live ledger forgot.
	Kind, DelKind string
	// Store (nil: in memory only) is compacted with Sweeps once its journal
	// passes CompactBytes; failures count in StoreErrors.
	Store        *store.Store
	Sweeps       *SweepIndex
	CompactBytes int64
	StoreErrors  *obs.Counter

	// The hooks: Record returns a run's journal record (nil while it is not
	// durable); Decode rebuilds one from a recovered record (an error drops
	// it); Settled reports when it reached its terminal state, if it has;
	// Forget (optional) runs after a run is forgotten; Extra (optional)
	// returns the backend's own live records, compacted before the runs.
	Record  func(r R) any
	Decode  func(payload []byte) (id, key string, r R, err error)
	Settled func(r R) (time.Time, bool)
	Forget  func(r R)
	Extra   func() []store.Record
}

// Ledger is the run half of a backend, written once for the pool and the
// fleet coordinator: run IDs, lookup, listing in submission order, the
// spec-key index, the bounded history of terminal runs, the run journal
// with its compaction, and recovery. It has no lock of its own: the
// backend's mutex guards it, so the lock order stays backend → sweep index.
type Ledger[R any] struct {
	// Limit bounds the terminal runs kept (default DefaultHistoryLimit,
	// which only tests lower); past it the least recently used is forgotten.
	Limit int

	cfg   LedgerConfig[R]
	seq   uint64
	byID  map[string]*entry[R]
	byKey map[string]*entry[R]
	order list.List // every run, in submission order
	// history holds the terminal runs, least recently used first: settling
	// a run or serving a cache hit from it moves it to the back.
	history list.List
}

type entry[R any] struct {
	run       R
	id, key   string
	sub, hist *list.Element
}

// NewLedger returns an empty ledger bounded at DefaultHistoryLimit.
func NewLedger[R any](cfg LedgerConfig[R]) *Ledger[R] {
	if cfg.Kind == "" || cfg.DelKind == "" {
		panic("runqueue: a run ledger needs a record kind and a delete kind")
	}
	return &Ledger[R]{Limit: DefaultHistoryLimit, cfg: cfg, byID: map[string]*entry[R]{}, byKey: map[string]*entry[R]{}}
}

// Add records the run build makes under a fresh "run-%06d" ID and makes it
// the owner of key.
func (l *Ledger[R]) Add(key string, build func(id string) R) R {
	l.seq++
	id := fmt.Sprintf("run-%06d", l.seq)
	e := &entry[R]{run: build(id), id: id, key: key}
	l.insert(e)
	return e.run
}

func (l *Ledger[R]) insert(e *entry[R]) {
	e.sub = l.order.PushBack(e)
	l.byID[e.id] = e
	l.byKey[e.key] = e
}

// Get returns the run with the given ID, or the zero R.
func (l *Ledger[R]) Get(id string) R { return l.byID[id].value() }

// Owner returns the run owning a spec key, or the zero R.
func (l *Ledger[R]) Owner(key string) R { return l.byKey[key].value() }

func (e *entry[R]) value() (r R) {
	if e != nil {
		r = e.run
	}
	return r
}

// Release drops a run's spec-key entry, if the run still owns it.
func (l *Ledger[R]) Release(id string) {
	if e := l.byID[id]; e != nil && l.byKey[e.key] == e {
		delete(l.byKey, e.key)
	}
}

// Len is the number of runs recorded.
func (l *Ledger[R]) Len() int { return l.order.Len() }

// Each calls fn for every run in submission order, or newest first.
func (l *Ledger[R]) Each(newestFirst bool, fn func(R)) { walk(&l.order, newestFirst, fn) }

// EachSettled calls fn for every terminal run, least recently used first.
func (l *Ledger[R]) EachSettled(fn func(R)) { walk(&l.history, false, fn) }

func walk[R any](ls *list.List, backwards bool, fn func(R)) {
	el, next := ls.Front(), (*list.Element).Next
	if backwards {
		el, next = ls.Back(), (*list.Element).Prev
	}
	for ; el != nil; el = next(el) {
		fn(el.Value.(*entry[R]).run)
	}
}

// Touch renews the terminal run a cache hit was served from.
func (l *Ledger[R]) Touch(id string) {
	if e := l.byID[id]; e != nil && e.hist != nil {
		l.history.MoveToBack(e.hist)
	}
}

// Settle puts a run that reached its terminal state at the back of the
// history, forgets the least recently used runs past Limit, and journals
// the run.
func (l *Ledger[R]) Settle(id string) {
	e := l.byID[id]
	if e == nil {
		return
	}
	if e.hist == nil {
		e.hist = l.history.PushBack(e)
	}
	l.history.MoveToBack(e.hist)
	l.evict()
	l.Persist(id)
}

// evict forgets terminal runs past Limit, least recently used first, and
// returns how many.
func (l *Ledger[R]) evict() (n int) {
	for ; l.history.Len() > l.Limit; n++ {
		l.Forget(l.history.Front().Value.(*entry[R]).id)
	}
	return n
}

// Forget erases a run: its ID, its places in submission order and history,
// and its spec-key entry if it still owns it.
func (l *Ledger[R]) Forget(id string) {
	e := l.byID[id]
	if e == nil {
		return
	}
	l.Append(l.cfg.DelKind, delRecord{ID: id})
	l.Release(id)
	delete(l.byID, id)
	l.order.Remove(e.sub)
	if e.hist != nil {
		l.history.Remove(e.hist)
	}
	if l.cfg.Forget != nil {
		l.cfg.Forget(e.run)
	}
}

// delRecord erases a run ID, so recovery does not resurrect it from
// earlier journal entries.
type delRecord struct {
	ID string `json:"id"`
}

// Persist journals a run's record, encoded once, and compacts the store
// past its bound. Store failures are counted, never fatal.
func (l *Ledger[R]) Persist(id string) {
	if e := l.byID[id]; e != nil && l.cfg.Store != nil {
		if rec := l.cfg.Record(e.run); rec != nil && l.Append(l.cfg.Kind, rec) {
			l.maybeCompact()
		}
	}
}

// Append journals a record, the ledger's or the backend's own, and
// reports whether it landed; without a store it does nothing.
func (l *Ledger[R]) Append(kind string, v any) bool {
	if l.cfg.Store == nil {
		return false
	}
	payload, err := json.Marshal(v)
	if err == nil {
		err = l.cfg.Store.Append(store.Record{Kind: kind, Payload: payload})
	}
	if err != nil {
		l.cfg.StoreErrors.Inc()
	}
	return err == nil
}

// maybeCompact rewrites the store down to the backend's extra records, the
// durable runs in submission order and the sweeps, once the journal has
// passed CompactBytes.
func (l *Ledger[R]) maybeCompact() {
	if l.cfg.Store.JournalBytes() < l.cfg.CompactBytes {
		return
	}
	var live []store.Record
	if l.cfg.Extra != nil {
		live = l.cfg.Extra()
	}
	l.Each(false, func(r R) {
		if rec := l.cfg.Record(r); rec != nil {
			if payload, err := json.Marshal(rec); err == nil {
				live = append(live, store.Record{Kind: l.cfg.Kind, Payload: payload})
			}
		}
	})
	if err := CompactStore(l.cfg.Sweeps, live); err != nil {
		l.cfg.StoreErrors.Inc()
	}
}

// Recover takes the ledger's records out of a store's recovered stream,
// before the backend serves: the last record per ID wins, delete records
// are honoured, runs list in ID order, the ID sequence continues, each key
// goes to its newest run, and the history is rebuilt in finish order under
// the live bound. It returns the records left for the backend and how many
// runs it recovered, records it could not decode, and runs the bound forgot.
func (l *Ledger[R]) Recover(recs []store.Record) (rest []store.Record, recovered, dropped, evicted int) {
	found := map[string]*entry[R]{}
	var runs []*entry[R] // first-seen order, erased runs included
	for _, rec := range recs {
		switch rec.Kind {
		case l.cfg.Kind:
			id, key, r, err := l.cfg.Decode(rec.Payload)
			if err != nil || id == "" {
				dropped++
			} else if e := found[id]; e != nil {
				e.key, e.run = key, r
			} else {
				found[id] = &entry[R]{run: r, id: id, key: key}
				runs = append(runs, found[id])
			}
		case l.cfg.DelKind:
			var dr delRecord
			if err := json.Unmarshal(rec.Payload, &dr); err != nil || dr.ID == "" {
				dropped++
			}
			delete(found, dr.ID)
		default:
			rest = append(rest, rec)
		}
	}
	runs = slices.DeleteFunc(runs, func(e *entry[R]) bool { return found[e.id] != e })
	// Zero-padded IDs sort numerically by length, then bytes.
	slices.SortStableFunc(runs, func(a, b *entry[R]) int {
		return cmp.Or(cmp.Compare(len(a.id), len(b.id)), strings.Compare(a.id, b.id))
	})
	var settled []*entry[R]
	for _, e := range runs {
		l.insert(e)
		if n, ok := SeqOf(e.id, "run-"); ok {
			l.seq = max(l.seq, n)
		}
		if _, ok := l.cfg.Settled(e.run); ok {
			settled = append(settled, e)
		}
	}
	slices.SortStableFunc(settled, func(a, b *entry[R]) int {
		at, _ := l.cfg.Settled(a.run)
		bt, _ := l.cfg.Settled(b.run)
		return at.Compare(bt)
	})
	for _, e := range settled {
		e.hist = l.history.PushBack(e)
	}
	return rest, len(runs), dropped, l.evict()
}

// SeqOf parses the number in a "run-%06d", "sweep-%06d" or "node-%03d" ID.
func SeqOf(id, prefix string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(id, prefix+"%d", &n); err != nil {
		return 0, false
	}
	return n, true
}
