package runqueue

import (
	"cmp"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"pdpasim/client"
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
	// Store (nil: in memory only) is compacted with Sweeps when the run
	// records it holds are at least half garbage (see Ledger); failures
	// count in StoreErrors.
	Store       *store.Store
	Sweeps      *SweepIndex
	StoreErrors *obs.Counter

	// The hooks: Record returns a run's journal record (nil while it is not
	// durable); Decode rebuilds one from a recovered record (an error drops
	// it); Event is the event of its current state, which starts its event
	// chain, ends it when the run settles (its state decides whether the run
	// keeps answering its spec key) and whose time orders the recovered
	// history; Extra (optional) returns the backend's own live records,
	// compacted before the runs.
	Record func(r R) any
	Decode func(payload []byte) (id, key string, r R, err error)
	Event  func(r R) client.Event
	Extra  func() []store.Record
}

// Ledger is the run half of a backend, written once for the pool and the
// fleet coordinator: run IDs, lookup, listing in submission order, the
// spec-key index, the bounded history of terminal runs, each run's event
// chain (RunEvent), the run journal with its compaction, and recovery. It
// has no lock of its own: the backend's mutex guards it, so the lock order
// stays backend → sweep index.
//
// The ledger alone decides which run answers a spec key, so the result
// cache is the history itself: a pending run (a resubmission joins it) or a
// done one (a cache hit, served for as long as the history holds the run).
// A run that did not succeed gives up its key when it settles and when it
// is recovered, so a resubmission simulates afresh.
//
// Compaction is decided from what the ledger measures, not from a fixed
// size. It counts the payload bytes of the run records it journals: live
// bytes are the last record of every run it still holds; dead bytes are the
// records a later record for the same ID superseded, the last record of
// every run it forgot, and every delete record. Persist compacts once dead
// ≥ live (live is positive right after an append, so dead is too), so a
// compaction reclaims at least as many bytes as it rewrites and the
// journal's write amplification stays within 2×. Recover rebuilds both
// counts from the recovered stream, so a restart keeps its debt. The
// backend's own records (the coordinator's nodes) and the sweeps are
// counted neither way: they are rewritten, and drained node tombstones
// dropped, whenever run garbage triggers a compaction.
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
	// a run or serving a cache hit from it moves it to the back. It is the
	// result cache, and Limit its only bound.
	history list.List
	// live and dead are the journaled run-record payload bytes still
	// current and already garbage; live is the sum of the entries' bytes.
	live, dead int64
}

type entry[R any] struct {
	run       R
	id, key   string
	sub, hist *list.Element
	bytes     int64     // payload length of the run's last journaled record
	events    *RunEvent // the newest event of the run's chain
}

// RunEvent is one event of a run's append-only chain (queued → running →
// terminal; queued again on a coordinator's requeue). next is set under the
// backend mutex just before ready is closed, and read only after, so
// followers walk the chain without the lock. A terminal event's ready is nil.
type RunEvent struct {
	client.Event
	next  *RunEvent
	ready chan struct{}
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
	l.Advance(id, l.cfg.Event(e.run))
	return e.run
}

func (l *Ledger[R]) insert(e *entry[R]) {
	e.sub = l.order.PushBack(e)
	l.byID[e.id] = e
	l.byKey[e.key] = e
}

// Get returns the run with the given ID, or the zero R.
func (l *Ledger[R]) Get(id string) R { return l.byID[id].value() }

// Owner returns the run answering a spec key, or the zero R, without
// renewing it.
func (l *Ledger[R]) Owner(key string) R { return l.byKey[key].value() }

// Lookup returns the run answering a spec key, or the zero R. hit reports a
// cache hit: the run is terminal, hence done, and is renewed as the
// history's most recently used; otherwise the run is still pending.
func (l *Ledger[R]) Lookup(key string) (r R, hit bool) {
	e := l.byKey[key]
	if e == nil {
		return r, false
	}
	if e.hist != nil {
		l.history.MoveToBack(e.hist)
	}
	return e.run, e.hist != nil
}

func (e *entry[R]) value() (r R) {
	if e != nil {
		r = e.run
	}
	return r
}

// release drops a run's spec-key entry, if the run still owns it.
func (l *Ledger[R]) release(e *entry[R]) {
	if l.byKey[e.key] == e {
		delete(l.byKey, e.key)
	}
}

// Advance appends ev, stamped with the run's ID, to the run's event chain,
// waking its followers; a chain that reached a terminal event takes no more.
func (l *Ledger[R]) Advance(id string, ev client.Event) {
	e := l.byID[id]
	if e == nil || e.events != nil && e.events.ready == nil {
		return
	}
	ev.RunID = id
	next := &RunEvent{Event: ev}
	if !client.Terminal(ev.State) {
		next.ready = make(chan struct{})
	}
	if prev := e.events; prev != nil {
		prev.next = next
		close(prev.ready)
	}
	e.events = next
}

// Events returns the run's newest event, where a follower starts, or nil
// when the run is unknown.
func (l *Ledger[R]) Events(id string) *RunEvent {
	if e := l.byID[id]; e != nil {
		return e.events
	}
	return nil
}

// Follow calls emit with each event from this one through the terminal
// one, or until ctx ends; a slow emit delays only its own follower.
func (ev *RunEvent) Follow(ctx context.Context, emit func(client.Event)) error {
	for ; ; ev = ev.next {
		emit(ev.Event)
		if ev.ready == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ev.ready:
		}
	}
}

// Bytes reports the journaled run-record payload bytes still live and
// already dead, the two counts that decide compaction.
func (l *Ledger[R]) Bytes() (live, dead int64) { return l.live, l.dead }

// Len is the number of runs recorded.
func (l *Ledger[R]) Len() int { return l.order.Len() }

// Each calls fn for every run in submission order, or newest first.
func (l *Ledger[R]) Each(newestFirst bool, fn func(R)) { walk(&l.order, newestFirst, fn) }

func walk[R any](ls *list.List, backwards bool, fn func(R)) {
	el, next := ls.Front(), (*list.Element).Next
	if backwards {
		el, next = ls.Back(), (*list.Element).Prev
	}
	for ; el != nil; el = next(el) {
		fn(el.Value.(*entry[R]).run)
	}
}

// Settle ends the event chain of a run that reached its terminal state with
// the event of that state, files the run in the history, forgets the least
// recently used runs past Limit, and journals the run.
func (l *Ledger[R]) Settle(id string) {
	e := l.byID[id]
	if e == nil {
		return
	}
	l.Advance(id, l.cfg.Event(e.run))
	l.file(e)
	l.evict()
	l.Persist(id)
}

// file puts a terminal run at the back of the history. This is the one
// place that decides whether a terminal run answers its spec key: only a
// done run does, so a failed or cancelled one gives up its key.
func (l *Ledger[R]) file(e *entry[R]) {
	if e.hist == nil {
		e.hist = l.history.PushBack(e)
	}
	l.history.MoveToBack(e.hist)
	if e.events.State != string(Done) {
		l.release(e)
	}
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
	l.dead += e.bytes + int64(l.Append(l.cfg.DelKind, delRecord{ID: id}))
	l.live -= e.bytes
	l.release(e)
	delete(l.byID, id)
	l.order.Remove(e.sub)
	if e.hist != nil {
		l.history.Remove(e.hist)
	}
}

// delRecord erases a run ID, so recovery does not resurrect it from
// earlier journal entries.
type delRecord struct {
	ID string `json:"id"`
}

// Persist journals a run's record, encoded once, superseding its previous
// one, and compacts the store once dead ≥ live. Store failures are counted,
// never fatal.
func (l *Ledger[R]) Persist(id string) {
	e := l.byID[id]
	if e == nil || l.cfg.Store == nil {
		return
	}
	rec := l.cfg.Record(e.run)
	if rec == nil {
		return
	}
	if n := int64(l.Append(l.cfg.Kind, rec)); n > 0 {
		l.dead += e.bytes
		l.live += n - e.bytes
		e.bytes = n
		if l.dead >= l.live {
			l.compact()
		}
	}
}

// Append journals a record, the ledger's or the backend's own, and returns
// its payload length, or 0 when it did not land; without a store it does
// nothing.
func (l *Ledger[R]) Append(kind string, v any) int {
	if l.cfg.Store == nil {
		return 0
	}
	payload, err := json.Marshal(v)
	if err == nil {
		err = l.cfg.Store.Append(store.Record{Kind: kind, Payload: payload})
	}
	if err != nil {
		l.cfg.StoreErrors.Inc()
		return 0
	}
	return len(payload)
}

// compact rewrites the store down to the backend's extra records, the
// durable runs in submission order and the sweeps; the rewritten records
// are then all the live bytes, and no byte is dead.
func (l *Ledger[R]) compact() {
	var live []store.Record
	if l.cfg.Extra != nil {
		live = l.cfg.Extra()
	}
	l.live = 0
	for el := l.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[R])
		e.bytes = 0
		if rec := l.cfg.Record(e.run); rec != nil {
			if payload, err := json.Marshal(rec); err == nil {
				live = append(live, store.Record{Kind: l.cfg.Kind, Payload: payload})
				e.bytes = int64(len(payload))
			}
		}
		l.live += e.bytes
	}
	if err := CompactStore(l.cfg.Sweeps, live); err != nil {
		l.cfg.StoreErrors.Inc()
		return
	}
	l.dead = 0
}

// Recover takes the ledger's records out of a store's recovered stream,
// before the backend serves: the last record per ID wins, delete records
// are honoured, runs list in ID order, the ID sequence continues, each key
// goes to its newest run, and the history is rebuilt in finish order under
// the live bound, where a run that did not succeed gives up its key as it
// does when it settles. Undecodable records count as dead bytes too. It never
// compacts: the coordinator rebuilds its node table only afterwards, so a
// compaction here would drop its node records. It returns the records left
// for the backend and how many runs it recovered, records it could not
// decode, and runs the bound forgot.
func (l *Ledger[R]) Recover(recs []store.Record) (rest []store.Record, recovered, dropped, evicted int) {
	found := map[string]*entry[R]{}
	var runs []*entry[R] // first-seen order, erased runs included
	for _, rec := range recs {
		n := int64(len(rec.Payload))
		switch rec.Kind {
		case l.cfg.Kind:
			id, key, r, err := l.cfg.Decode(rec.Payload)
			if err != nil || id == "" {
				dropped++
				l.dead += n
			} else if e := found[id]; e != nil {
				l.dead += e.bytes
				e.key, e.run, e.bytes = key, r, n
			} else {
				found[id] = &entry[R]{run: r, id: id, key: key, bytes: n}
				runs = append(runs, found[id])
			}
		case l.cfg.DelKind:
			var dr delRecord
			if err := json.Unmarshal(rec.Payload, &dr); err != nil || dr.ID == "" {
				dropped++
			}
			l.dead += n
			if e := found[dr.ID]; e != nil {
				l.dead += e.bytes
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
		l.live += e.bytes
		if n, ok := SeqOf(e.id, "run-"); ok {
			l.seq = max(l.seq, n)
		}
		l.Advance(e.id, l.cfg.Event(e.run))
		if e.events.ready == nil {
			settled = append(settled, e)
		}
	}
	slices.SortStableFunc(settled, func(a, b *entry[R]) int { return a.events.At.Compare(b.events.At) })
	for _, e := range settled {
		l.file(e)
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
