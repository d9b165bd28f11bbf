package bench

import (
	"encoding/binary"
	"testing"

	"aets/internal/epoch"
	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/wal"
)

func i64(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

// streamBuilder hand-writes transactions with the previous-writer and
// write-count witnesses a primary would attach.
type streamBuilder struct {
	txns   []wal.Txn
	last   map[[2]uint64]uint64
	writes map[[2]uint64]uint64
}

type w struct {
	op    wal.LogType
	table wal.TableID
	key   uint64
	cols  []wal.Column
}

func (b *streamBuilder) txn(ws ...w) {
	if b.last == nil {
		b.last, b.writes = map[[2]uint64]uint64{}, map[[2]uint64]uint64{}
	}
	id := uint64(len(b.txns) + 1)
	t := wal.Txn{ID: id, CommitTS: int64(id) * 1000}
	for _, x := range ws {
		ref := [2]uint64{uint64(x.table), x.key}
		t.Entries = append(t.Entries, wal.Entry{
			Type: x.op, TxnID: id, Timestamp: t.CommitTS, Table: x.table, RowKey: x.key,
			Columns: x.cols, PrevTxn: b.last[ref], WriteSeq: b.writes[ref],
		})
		b.last[ref] = id
		b.writes[ref]++
	}
	b.txns = append(b.txns, t)
}

const (
	tA wal.TableID = 1
	tB wal.TableID = 2
)

// knownStream is three epochs of two transactions each: inserts, a
// partial-column update, an update that turns a 3-byte value into an
// 8-byte one, an update of a never-inserted row, a delete and a
// re-insert after it.
func knownStream() [][]wal.Txn {
	var b streamBuilder
	// Epoch 0.
	b.txn(
		w{wal.TypeInsert, tA, 1, []wal.Column{{ID: 1, Value: i64(10)}, {ID: 2, Value: []byte("abc")}}},
		w{wal.TypeInsert, tA, 2, []wal.Column{{ID: 1, Value: i64(20)}, {ID: 2, Value: i64(5)}}},
	)
	b.txn(w{wal.TypeInsert, tB, 1, []wal.Column{{ID: 1, Value: i64(7)}}})
	// Epoch 1.
	b.txn(
		w{wal.TypeUpdate, tA, 1, []wal.Column{{ID: 2, Value: i64(100)}}},
		w{wal.TypeUpdate, tA, 2, []wal.Column{{ID: 1, Value: i64(25)}}},
	)
	b.txn(w{wal.TypeDelete, tB, 1, nil})
	// Epoch 2.
	b.txn(
		w{wal.TypeInsert, tB, 1, []wal.Column{{ID: 2, Value: i64(9)}}},
		w{wal.TypeUpdate, tA, 3, []wal.Column{{ID: 1, Value: i64(1)}}},
	)
	b.txn(w{wal.TypeDelete, tA, 2, nil})
	return [][]wal.Txn{b.txns[0:2], b.txns[2:4], b.txns[4:6]}
}

// want is the known answer of every table after one epoch.
type want struct {
	count      map[wal.TableID]int
	sum1, sum2 map[wal.TableID]int64
	max        map[wal.TableID]int64
}

var knownAnswers = []want{
	{ // ts 2000: "abc" is not 8 bytes wide, so it adds nothing.
		count: map[wal.TableID]int{tA: 2, tB: 1},
		sum1:  map[wal.TableID]int64{tA: 30, tB: 7},
		sum2:  map[wal.TableID]int64{tA: 5, tB: 0},
		max:   map[wal.TableID]int64{tA: 1000, tB: 2000},
	},
	{ // ts 4000: the partial updates keep the other column; tB is gone.
		count: map[wal.TableID]int{tA: 2, tB: 0},
		sum1:  map[wal.TableID]int64{tA: 35, tB: 0},
		sum2:  map[wal.TableID]int64{tA: 105, tB: 0},
		max:   map[wal.TableID]int64{tA: 3000, tB: 0},
	},
	{ // ts 6000: the re-insert does not reach past the delete.
		count: map[wal.TableID]int{tA: 2, tB: 1},
		sum1:  map[wal.TableID]int64{tA: 11, tB: 0},
		sum2:  map[wal.TableID]int64{tA: 100, tB: 9},
		max:   map[wal.TableID]int64{tA: 5000, tB: 5000},
	},
}

func TestModelKnownAnswers(t *testing.T) {
	m := NewModel()
	for e, txns := range knownStream() {
		for i := range txns {
			m.Apply(&txns[i])
		}
		k := knownAnswers[e]
		for _, tb := range []wal.TableID{tA, tB} {
			if got := m.Count(tb); got != k.count[tb] {
				t.Errorf("epoch %d table %d: Count %d, want %d", e, tb, got, k.count[tb])
			}
			if got := m.SumInt64(tb, 1); got != k.sum1[tb] {
				t.Errorf("epoch %d table %d: SumInt64(1) %d, want %d", e, tb, got, k.sum1[tb])
			}
			if got := m.SumInt64(tb, 2); got != k.sum2[tb] {
				t.Errorf("epoch %d table %d: SumInt64(2) %d, want %d", e, tb, got, k.sum2[tb])
			}
			if got := m.MaxCommitTS(tb); got != k.max[tb] {
				t.Errorf("epoch %d table %d: MaxCommitTS %d, want %d", e, tb, got, k.max[tb])
			}
		}
	}
	if r := m.get(tB, 1); r == nil || len(r.cols) != 1 || r.cols[2] == nil || r.ts != 5000 {
		t.Errorf("re-inserted row: %+v, want only column 2 at ts 5000", r)
	}
	if r := m.get(tA, 1); r == nil || len(r.cols) != 2 || len(r.cols[2]) != 8 {
		t.Errorf("partially updated row: %+v, want both columns", r)
	}
	if got := m.Columns(tA, true); len(got) != 0 {
		t.Errorf("columns every write to table %d carried: %v, want none", tA, got)
	}
	if got := m.Columns(tA, false); len(got) != 2 {
		t.Errorf("columns of table %d: %v, want [1 2]", tA, got)
	}
}

// TestModelAgreesWithReplica feeds the known stream to a real replica and
// checks its answers at every epoch boundary against the model's.
func TestModelAgreesWithReplica(t *testing.T) {
	tables := []wal.TableID{tA, tB}
	node, err := htap.NewNode(htap.KindAETS, grouping.SingleGroup(tables), htap.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	m := NewModel()
	lsn := uint64(1)
	ops := []op{
		{kind: opGet, table: tA, a: 1}, {kind: opGet, table: tB, a: 1}, {kind: opGet, table: tA, a: 3},
		{kind: opScan, table: tA, a: 0, b: 10}, {kind: opScanKeys, table: tB, a: 0, b: 10},
	}
	for _, tb := range tables {
		ops = append(ops, op{kind: opCount, table: tb}, op{kind: opMax, table: tb},
			op{kind: opSum, table: tb, col: 1}, op{kind: opSum, table: tb, col: 2})
	}
	for e, txns := range knownStream() {
		var enc epoch.Encoded
		enc, lsn = epoch.Encode(&epoch.Epoch{Seq: uint64(e), Txns: txns}, lsn)
		if err := node.Feed(&enc); err != nil {
			t.Fatal(err)
		}
		for i := range txns {
			m.Apply(&txns[i])
		}
		sn := node.Query(enc.LastCommitTS, tables...)
		rc := &queryRec{}
		got, err := execQuery(sn, enc.LastCommitTS, ops, rc, clock{}, &spanBuf{}, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rc.bad != "" {
			t.Errorf("epoch %d: %s", e, rc.bad)
		}
		if want := m.answer(ops); got != want {
			t.Errorf("epoch %d: replica digest %x, model %x", e, got, want)
		}
	}
}

// TestAnswerDigestSeesOneWrongValue shows the digest separates answers
// that differ in a single value.
func TestAnswerDigestSeesOneWrongValue(t *testing.T) {
	m := NewModel()
	for _, txns := range knownStream() {
		for i := range txns {
			m.Apply(&txns[i])
		}
	}
	ops := []op{{kind: opGet, table: tA, a: 1}, {kind: opSum, table: tA, col: 1}}
	a := m.answer(ops)
	m.tables[tA].sums[1]++
	if b := m.answer(ops); a == b {
		t.Fatal("digest unchanged by a wrong sum")
	}
}
