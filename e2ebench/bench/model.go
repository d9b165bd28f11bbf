package bench

import (
	"encoding/binary"
	"sort"

	"aets/internal/wal"
)

// Model is the benchmark's reference: plain maps advanced in commit order
// over the generated transactions, independent of the replica's storage,
// replay and query code. It answers every read the benchmark issues at
// the model's current timestamp, so the caller advances it epoch by epoch
// and asks at each epoch boundary.
//
// A row's image follows the replica's read rule: the newest write of each
// column since the row's last delete. That gives SumInt64's
// newest-version-carrying-the-column rule and its stop-at-delete rule;
// only 8-byte values count toward a sum.
type Model struct {
	tables map[wal.TableID]*mtable
}

type mrow struct {
	cols map[uint32][]byte
	ts   int64 // commit timestamp of the row's newest write
	live bool
}

type mtable struct {
	rows  map[uint64]*mrow
	count int
	sums  map[uint32]int64
	// every holds the columns every insert and update so far carried;
	// nil before the first.
	every map[uint32]bool
	// writes holds (ts, key) of every non-delete write in commit order;
	// MaxCommitTS pops entries a later write or delete made stale.
	writes []tsKey
}

type tsKey struct {
	ts  int64
	key uint64
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{tables: make(map[wal.TableID]*mtable)} }

func (m *Model) table(id wal.TableID) *mtable {
	t := m.tables[id]
	if t == nil {
		t = &mtable{rows: make(map[uint64]*mrow), sums: make(map[uint32]int64)}
		m.tables[id] = t
	}
	return t
}

// Apply advances the model by one committed transaction.
func (m *Model) Apply(txn *wal.Txn) {
	for i := range txn.Entries {
		e := &txn.Entries[i]
		if e.Type.IsDML() {
			m.table(e.Table).apply(e, txn.CommitTS)
		}
	}
}

func (t *mtable) apply(e *wal.Entry, ts int64) {
	r := t.rows[e.RowKey]
	if r == nil {
		r = &mrow{}
		t.rows[e.RowKey] = r
	}
	if r.live {
		t.addSums(r, -1)
	}
	r.ts = ts
	if e.Type == wal.TypeDelete {
		if r.live {
			t.count--
		}
		r.live, r.cols = false, nil
		return
	}
	if t.every == nil {
		t.every = make(map[uint32]bool, len(e.Columns))
		for _, c := range e.Columns {
			t.every[c.ID] = true
		}
	}
	for id := range t.every {
		if !carries(e, id) {
			delete(t.every, id)
		}
	}
	if !r.live {
		// Versions older than a delete belong to a prior row.
		r.live, r.cols = true, make(map[uint32][]byte, len(e.Columns))
		t.count++
	}
	for _, c := range e.Columns {
		r.cols[c.ID] = c.Value
	}
	t.addSums(r, 1)
	t.writes = append(t.writes, tsKey{ts, e.RowKey})
}

func carries(e *wal.Entry, id uint32) bool {
	for _, c := range e.Columns {
		if c.ID == id {
			return true
		}
	}
	return false
}

func (t *mtable) addSums(r *mrow, sign int64) {
	for id, v := range r.cols {
		if len(v) == 8 {
			t.sums[id] += sign * int64(binary.LittleEndian.Uint64(v))
		}
	}
}

func (m *Model) get(table wal.TableID, key uint64) *mrow {
	t := m.tables[table]
	if t == nil {
		return nil
	}
	if r := t.rows[key]; r != nil && r.live {
		return r
	}
	return nil
}

// Count is the number of live rows in the table.
func (m *Model) Count(table wal.TableID) int {
	if t := m.tables[table]; t != nil {
		return t.count
	}
	return 0
}

// SumInt64 sums the 8-byte values of col over the table's live rows.
func (m *Model) SumInt64(table wal.TableID, col uint32) int64 {
	if t := m.tables[table]; t != nil {
		return t.sums[col]
	}
	return 0
}

// MaxCommitTS is the newest commit timestamp among the table's live rows.
func (m *Model) MaxCommitTS(table wal.TableID) int64 {
	t := m.tables[table]
	if t == nil {
		return 0
	}
	for n := len(t.writes); n > 0; n = len(t.writes) {
		w := t.writes[n-1]
		if r := t.rows[w.key]; r.live && r.ts == w.ts {
			return w.ts
		}
		t.writes = t.writes[:n-1]
	}
	return 0
}

// Columns returns, in ascending order, the IDs of every column the
// table's live rows carry, or with whole set only those every insert and
// update to the table carried.
func (m *Model) Columns(table wal.TableID, whole bool) []uint32 {
	t := m.tables[table]
	if t == nil {
		return nil
	}
	seen := t.every
	if !whole {
		seen = make(map[uint32]bool)
		for _, r := range t.rows {
			for id := range r.cols {
				seen[id] = true
			}
		}
	}
	out := make([]uint32, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Tables returns the IDs of every table the stream wrote, ascending.
func (m *Model) Tables() []wal.TableID {
	out := make([]wal.TableID, 0, len(m.tables))
	for id := range m.tables {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// answer folds the model's result of every op into a digest, the same way
// the replica's results are folded by execQuery.
func (m *Model) answer(ops []op) uint64 {
	h := newDigest()
	for _, o := range ops {
		switch o.kind {
		case opGet:
			r := m.get(o.table, o.a)
			h.bool(r != nil)
			if r != nil {
				h.row(o.a, r.ts, r.cols)
			}
		case opScan:
			n := uint64(0)
			for k := o.a; k <= o.b; k++ {
				if r := m.get(o.table, k); r != nil {
					h.row(k, r.ts, r.cols)
					n++
				}
			}
			h.u64(n)
		case opScanKeys:
			n := uint64(0)
			for k := o.a; k <= o.b; k++ {
				if r := m.get(o.table, k); r != nil {
					h.u64(k)
					h.u64(uint64(r.ts))
					n++
				}
			}
			h.u64(n)
		case opCount:
			h.u64(uint64(m.Count(o.table)))
		case opSum:
			h.u64(uint64(m.SumInt64(o.table, o.col)))
		case opMax:
			h.u64(uint64(m.MaxCommitTS(o.table)))
		}
	}
	return h.sum
}

// digest is FNV-1a over the fields of a query's results, in read order.
type digest struct{ sum uint64 }

func newDigest() *digest { return &digest{sum: 14695981039346656037} }

func (d *digest) byte(b byte) {
	d.sum ^= uint64(b)
	d.sum *= 1099511628211
}

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(v >> (8 * i)))
	}
}

func (d *digest) bool(b bool) {
	if b {
		d.byte(1)
	} else {
		d.byte(0)
	}
}

// row folds a row's key, commit timestamp and columns in ascending
// column-ID order.
func (d *digest) row(key uint64, ts int64, cols map[uint32][]byte) {
	d.u64(key)
	d.u64(uint64(ts))
	var buf [16]uint32
	ids := buf[:0]
	for id := range cols {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	d.u64(uint64(len(ids)))
	for _, id := range ids {
		v := cols[id]
		d.u64(uint64(id))
		d.u64(uint64(len(v)))
		for _, b := range v {
			d.byte(b)
		}
	}
}
