// Package bench is the end-to-end replica benchmark: one process generates
// a seeded primary stream, ships it over loopback TCP into one replica,
// replays it two-stage and reads it back through routed snapshot queries,
// timing each layer from outside around calls into its public functions.
package bench

import (
	"fmt"
	"math/rand"

	"aets/internal/grouping"
	"aets/internal/htap"
	"aets/internal/recovery"
	"aets/internal/wal"
	"aets/internal/workload"
)

// spec fixes one workload's inputs. Every field is a constant of the
// workload: nothing here is recalibrated per run, and the seed reaches
// only the generator.
type spec struct {
	name string
	gen  func() workload.Generator
	plan func(workload.Generator) *grouping.Plan

	epochSize   int // transactions per epoch
	catchupTxns int // transactions sent unpaced into the empty replica
	pacedRate   int // transactions per second in the paced phase
	queryRate   int // queries per second in the paced phase
	queryTypes  int // query i is of type i % queryTypes

	columnar, compress, durable bool
	sync                        recovery.SyncPolicy

	// Maintenance cadences, in arrived epochs (0 = never).
	vacuumEvery, compactEvery, checkpointEvery int

	// query builds query i's footprint and operations. rng is the
	// query schedule's own fixed-seed source; txns is the number of
	// transactions committed at the query's snapshot.
	query func(rng *rand.Rand, i int, txns int64) (tables []wal.TableID, ops []op)
}

// opKind names one snapshot read operation.
type opKind uint8

const (
	opGet opKind = iota
	opScan
	opCount
	opSum
	opMax
	opScanKeys
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "scan", "count", "sum", "max", "scankeys"}

// op is one read of a query: a point Get (a), a key-range Scan or
// ScanKeys over [a, b], or a whole-table Count, SumInt64 (col) or
// MaxCommitTS.
type op struct {
	kind  opKind
	table wal.TableID
	a, b  uint64
	col   uint32
}

const tpccSF = 20

var specs = []*spec{
	{
		name: "tpcc-row",
		gen:  func() workload.Generator { return workload.NewTPCC(tpccSF) },
		plan: func(g workload.Generator) *grouping.Plan {
			return grouping.Build(htap.TPCCRates(1000), workload.TableIDs(g.Tables()),
				grouping.Options{Eps: 0.05, MinPts: 2})
		},
		epochSize:   150,
		catchupTxns: 30000,
		pacedRate:   2500,
		queryRate:   250,
		queryTypes:  2,
		// No vacuum: Record.Vacuum drops the older versions a partial-
		// column update still reads through, and every TPC-C read here
		// returns a whole row image (see CHANGES.md, FOUND).
		query: tpccQuery,
	},
	{
		name: "chbench-columnar",
		gen:  func() workload.Generator { return workload.NewCHBench(tpccSF) },
		plan: func(g workload.Generator) *grouping.Plan {
			return grouping.Build(htap.CHRates(g), workload.TableIDs(g.Tables()),
				grouping.Options{PerTable: true})
		},
		epochSize:    50,
		catchupTxns:  8000,
		pacedRate:    375,
		queryRate:    250,
		queryTypes:   len(chQueries),
		columnar:     true,
		compress:     true,
		vacuumEvery:  3,
		compactEvery: 10,
		query:        chQuery,
	},
	{
		name: "bustracker-durable",
		gen:  func() workload.Generator { return workload.NewBusTracker() },
		plan: func(g workload.Generator) *grouping.Plan {
			bt := g.(*workload.BusTracker)
			return grouping.Build(bt.Rates(0), workload.TableIDs(bt.Tables()),
				grouping.Options{Eps: 0.3, MinPts: 2})
		},
		epochSize:       1000,
		catchupTxns:     30000,
		pacedRate:       2625,
		queryRate:       250,
		queryTypes:      len(busQueries),
		durable:         true,
		sync:            recovery.SyncNever,
		checkpointEvery: 20,
		query:           busQuery,
	},
}

// Workloads lists the workload names in definition order.
func Workloads() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

func lookup(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads())
}

// uniform returns a key in [1, n].
func uniform(rng *rand.Rand, n int64) uint64 {
	if n < 1 {
		n = 1
	}
	return 1 + uint64(rng.Int63n(n))
}

// tpccOrders bounds the order IDs that exist after txns transactions:
// NewOrder is 45 of every 92 transactions, so 2/5 of txns stays inside
// the inserted range.
func tpccOrders(txns int64) int64 { return txns * 2 / 5 }

// tpccQuery alternates the two TPC-C read-only transactions as point
// Gets and short key-range Scans: OrderStatus reads a customer, an order
// and that order's lines; StockLevel reads a district, the lines of the
// last ten orders and five stock rows.
func tpccQuery(rng *rand.Rand, i int, txns int64) ([]wal.TableID, []op) {
	o := uniform(rng, tpccOrders(txns))
	if i%2 == 0 {
		return []wal.TableID{workload.TPCCCustomer, workload.TPCCOrder, workload.TPCCOrderLine}, []op{
			{kind: opGet, table: workload.TPCCCustomer, a: uniform(rng, tpccSF*3000)},
			{kind: opGet, table: workload.TPCCOrder, a: o},
			{kind: opScan, table: workload.TPCCOrderLine, a: o * 16, b: o*16 + 15},
		}
	}
	from := uint64(1)
	if o > 10 {
		from = o - 9
	}
	ops := []op{
		{kind: opGet, table: workload.TPCCDistrict, a: uniform(rng, tpccSF*10)},
		{kind: opScan, table: workload.TPCCOrderLine, a: from * 16, b: o*16 + 15},
	}
	for k := 0; k < 5; k++ {
		ops = append(ops, op{kind: opGet, table: workload.TPCCStock, a: uniform(rng, tpccSF*10000)})
	}
	return []wal.TableID{workload.TPCCDistrict, workload.TPCCOrderLine, workload.TPCCStock}, ops
}

// chSumCol is the column each CH table's SumInt64 aggregates: one that
// every write to the table carries, because vacuum and compaction keep
// only the newest version at the watermark and so lose columns an older
// partial-column write supplied (see CHANGES.md, FOUND). district,
// orders and order_line have no such column and run Count and
// MaxCommitTS alone. history's column is 24 bytes wide, so its sum
// exercises the 8-byte-only rule.
var chSumCol = map[wal.TableID]uint32{
	workload.TPCCWarehouse: 8,
	workload.TPCCCustomer:  16,
	workload.TPCCHistory:   1,
	workload.TPCCNewOrder:  1,
	workload.TPCCStock:     2,
}

// chWritten is the set of tables the CH stream writes.
var chWritten = map[wal.TableID]bool{
	workload.TPCCWarehouse: true, workload.TPCCDistrict: true,
	workload.TPCCCustomer: true, workload.TPCCHistory: true,
	workload.TPCCNewOrder: true, workload.TPCCOrder: true,
	workload.TPCCOrderLine: true, workload.TPCCStock: true,
}

var chQueries = workload.NewCHBench(tpccSF).Queries()

// chQuery cycles through the 22 CH footprints. Each runs Count, SumInt64
// (where chSumCol allows) and MaxCommitTS on every written table it
// names, plus one 64-key
// ScanKeys on the first. The footprint keeps its never-replicated
// tables (item, supplier, nation, region), so admission sees them.
func chQuery(rng *rand.Rand, i int, txns int64) ([]wal.TableID, []op) {
	q := chQueries[i%len(chQueries)]
	var ops []op
	for _, t := range q.Tables {
		if !chWritten[t] {
			continue
		}
		if len(ops) == 0 {
			var k uint64
			switch t {
			case workload.TPCCOrder, workload.TPCCNewOrder:
				k = uniform(rng, tpccOrders(txns))
			case workload.TPCCOrderLine:
				k = uniform(rng, tpccOrders(txns)) * 16
			case workload.TPCCStock:
				k = uniform(rng, tpccSF*10000)
			default:
				k = uniform(rng, tpccSF*3000)
			}
			ops = append(ops, op{kind: opScanKeys, table: t, a: k, b: k + 63})
		}
		ops = append(ops, op{kind: opCount, table: t})
		if col, ok := chSumCol[t]; ok {
			ops = append(ops, op{kind: opSum, table: t, col: col})
		}
		ops = append(ops, op{kind: opMax, table: t})
	}
	return q.Tables, ops
}

var busQueries = workload.NewBusTracker().Queries()

// busQuery cycles through the 5 BusTracker footprints with one point Get
// and one 8-key Scan per table.
func busQuery(rng *rand.Rand, i int, _ int64) ([]wal.TableID, []op) {
	q := busQueries[i%len(busQueries)]
	ops := make([]op, 0, 2*len(q.Tables))
	for _, t := range q.Tables {
		k := uniform(rng, 50000)
		ops = append(ops,
			op{kind: opGet, table: t, a: uniform(rng, 50000)},
			op{kind: opScan, table: t, a: k, b: k + 7},
		)
	}
	return q.Tables, ops
}
