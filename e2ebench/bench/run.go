package bench

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"aets/internal/cluster"
	"aets/internal/epoch"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/primary"
	"aets/internal/query"
	"aets/internal/recovery"
	"aets/internal/ship"
	"aets/internal/wal"
	"aets/internal/workload"
)

// Config selects one run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the paced phase's length; with the workload's fixed
	// rates it sets how many epochs and queries the phase schedules.
	Seconds float64
	// Trace records spans and reports the per-layer metrics.
	Trace bool
	// WorkDir holds the durable replica's spool and checkpoints.
	WorkDir string
	// TraceOut is where a traced run writes its spans ("" = none).
	TraceOut string
	// SetupReps is how many times set-up runs; setup_s is the median.
	SetupReps int
	// CatchupAfter is how many more catch-ups run after the paced phase,
	// each into a fresh replica, so that the catch-up metrics, medians of
	// all catch-ups, sample the host at both ends of the run.
	CatchupAfter int
	// Scale multiplies the catch-up size (smoke runs shrink it).
	Scale float64
	// Floors enforces the percentile sample-count floors.
	Floors bool
	// Log receives the human-readable report.
	Log io.Writer

	// corrupt, when set, rewrites the replica's answer digest of query
	// q before it is checked: the mutation test's wrong answer.
	corrupt func(q int, d uint64) uint64
}

// Metric is one reported figure.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// Result is one run's outcome.
type Result struct {
	Correct           bool
	Attempted, Failed int
	EndToEnd          []Metric
	PerLayer          []Metric
	Mismatches        []string
}

// scheduled is one scheduled read.
type scheduled struct {
	due    int64 // ns after the paced phase starts
	ts     int64 // snapshot: LastCommitTS of the newest epoch due by then
	tables []wal.TableID
	ops    []op
}

// clock is the run's time base: nanoseconds since the run began.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

func (c clock) sleepUntil(t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// stream is one generated, encoded primary stream. at holds the run
// times generation started, encoding started and encoding ended.
type stream struct {
	encs []epoch.Encoded
	txns int
	at   [3]int64
}

func genStream(sp *spec, seed int64, txns int, clk clock) *stream {
	s := &stream{txns: txns}
	p := primary.New(sp.gen(), seed)
	s.at[0] = clk.now()
	all := p.GenerateTxns(txns)
	s.at[1] = clk.now()
	s.encs = epoch.EncodeAll(epoch.MustSplit(all, sp.epochSize))
	s.at[2] = clk.now()
	return s
}

// stamps are the per-epoch times the wrapped applier and the driver
// record, in run nanoseconds, indexed by epoch sequence.
type stamps struct {
	sendStart, sendEnd []int64
	arrive, fed        []int64
}

func newStamps(n int) *stamps {
	return &stamps{
		sendStart: make([]int64, n), sendEnd: make([]int64, n),
		arrive: make([]int64, n), fed: make([]int64, n),
	}
}

// stampApplier is the applier handed to the receiver: it stamps when each
// epoch arrives and when the replica's Feed returns, and tells the
// maintenance loop an epoch arrived.
type stampApplier struct {
	inner ship.Applier
	clk   clock
	st    *stamps
	tick  chan<- uint64
}

func (w *stampApplier) Feed(enc *epoch.Encoded) error {
	a := w.clk.now()
	err := w.inner.Feed(enc)
	w.record(enc.Seq, a)
	return err
}

func (w *stampApplier) Heartbeat(ts int64) error { return w.inner.Heartbeat(ts) }

func (w *stampApplier) record(seq uint64, a int64) {
	w.st.arrive[seq], w.st.fed[seq] = a, w.clk.now()
	w.tick <- seq
}

// stampFrameApplier keeps the supervisor's FeedFrame path, so the spool
// stores frames as they crossed the wire.
type stampFrameApplier struct {
	*stampApplier
	fa ship.FrameApplier
}

func (w stampFrameApplier) FeedFrame(flags byte, payload []byte, enc *epoch.Encoded) error {
	a := w.clk.now()
	err := w.fa.FeedFrame(flags, payload, enc)
	w.record(enc.Seq, a)
	return err
}

// replica is one brought-up replica and the link into it.
type replica struct {
	node   *htap.Node // the serving node (the supervisor's, when durable)
	sup    *recovery.Supervisor
	spool  *recovery.Spool
	dir    string
	ln     net.Listener
	served chan error
	sender *ship.Sender
	router *cluster.Router
	tick   chan uint64
	// shipped is the sender's final counters, taken at end of stream.
	shipped ship.SenderStats

	maint     *maintenance
	maintDone chan struct{}
	// lastTS is each epoch's LastCommitTS, for the maintenance watermark.
	lastTS []int64
}

// startMaintenance starts the replica's maintenance loop; it ends when
// the stream has ended and the tick channel is closed.
func (r *replica) startMaintenance(sp *spec, floor *atomic.Int64, clk clock, tb *spanBuf) {
	r.maint, r.maintDone = &maintenance{}, make(chan struct{})
	go func() {
		defer close(r.maintDone)
		r.maint.run(sp, r, floor, clk, tb)
	}()
}

// stopMaintenance closes the tick channel once no Feed can run any more
// and waits for the loop to exit.
func (r *replica) stopMaintenance() {
	if r.maintDone != nil {
		close(r.tick)
		<-r.maintDone
		r.maintDone = nil
	}
}

func bringUp(sp *spec, cfg *Config, clk clock, st *stamps, rep int) (*replica, error) {
	gen := sp.gen()
	tables := workload.TableIDs(gen.Tables())
	schema := ship.SchemaHash(sp.name, tables)
	reg := metrics.NewRegistry()
	opts := htap.Options{Workers: 2, Pipeline: 2, Columnar: sp.columnar, Metrics: reg}
	// One tick per epoch: sized to the number of sends, so the applier
	// never blocks on the maintenance loop.
	r := &replica{served: make(chan error, 1), tick: make(chan uint64, len(st.arrive))}
	w := &stampApplier{clk: clk, st: st, tick: r.tick}
	var app ship.Applier = w
	if sp.durable {
		r.dir = filepath.Join(cfg.WorkDir, fmt.Sprintf("replica-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
		spool, err := recovery.OpenSpool(recovery.SpoolConfig{
			Dir: filepath.Join(r.dir, "spool"), Policy: sp.sync, Metrics: reg})
		if err != nil {
			return nil, err
		}
		mgr, err := recovery.OpenManager(filepath.Join(r.dir, "ckpt"), 0, reg)
		if err != nil {
			spool.Close()
			return nil, err
		}
		sup, err := recovery.NewSupervisor(recovery.Config{
			Kind: htap.KindAETS, Plan: sp.plan(gen), Node: opts,
			Spool: spool, Checkpoints: mgr, Metrics: reg,
		})
		if err == nil {
			err = sup.Start()
		}
		if err != nil {
			spool.Close()
			return nil, err
		}
		r.sup, r.spool, r.node = sup, spool, sup.Node()
		w.inner = sup
		app = stampFrameApplier{stampApplier: w, fa: sup}
	} else {
		node, err := htap.NewNode(htap.KindAETS, sp.plan(gen), opts)
		if err != nil {
			return nil, err
		}
		r.node = node
		w.inner = node
	}
	node := r.node
	rcv, err := ship.NewReceiver(ship.ReceiverConfig{
		Schema:   schema,
		Applier:  app,
		Drain:    func() error { node.Drain(); return node.Err() },
		Metrics:  ship.NewMetrics(reg),
		Compress: sp.compress,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.ln = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				r.served <- err
				return
			}
			finished, err := rcv.Serve(conn)
			if finished || err != nil {
				r.served <- err
				return
			}
		}
	}()
	addr := ln.Addr().String()
	r.sender, err = ship.NewSender(ship.SenderConfig{
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:   schema,
		Metrics:  ship.NewMetrics(reg),
		Compress: sp.compress,
	})
	if err == nil {
		err = r.sender.Connect()
	}
	if err != nil {
		r.close()
		return nil, err
	}
	cm := cluster.NewMetrics(reg)
	members := cluster.NewMembership(cm)
	var member cluster.Replica = cluster.NewNodeReplica("replica-0", node)
	if r.sup != nil {
		member = cluster.NewSupervisorReplica("replica-0", r.sup)
	}
	if err := members.Add(member); err != nil {
		r.close()
		return nil, err
	}
	r.router, err = cluster.NewRouter(cluster.RouterConfig{Members: members, Metrics: cm})
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// finish ends the stream: the sender drains its window and sends
// end-of-stream, and the receiver's serve loop returns.
func (r *replica) finish() error {
	err := r.sender.Close()
	r.shipped = r.sender.Stats()
	if serr := <-r.served; err == nil {
		err = serr
	}
	r.sender = nil
	r.stopMaintenance()
	r.node.Drain()
	if err == nil {
		err = r.node.Err()
	}
	return err
}

// close stops everything the replica started and removes its files.
func (r *replica) close() {
	if r.sender != nil {
		r.sender.Close()
		<-r.served
	}
	r.stopMaintenance()
	if r.ln != nil {
		r.ln.Close()
	}
	if r.sup != nil {
		r.sup.Close()
		r.spool.Close()
	} else if r.node != nil {
		r.node.Close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// maintLag is how many epochs the maintenance watermark trails the
// arrived epoch.
const maintLag = 2

// maintenance runs vacuum, compaction and checkpoints every K arrived
// epochs, on its own goroutine, at a watermark no query reads below.
type maintenance struct {
	vacuumNS, compactNS, ckptNS []int64
	frozen                      int
	ckptErr                     error
}

func (m *maintenance) run(sp *spec, r *replica, floor *atomic.Int64, clk clock, tb *spanBuf) {
	for seq := range r.tick {
		n := int(seq) + 1
		// The watermark trails the arrived epoch by maintLag epochs, so
		// the work each pass does is fixed by the epoch count, not by
		// how far replay happened to be; it never passes what is visible
		// or what the next query reads.
		if n <= maintLag {
			continue
		}
		wm := min(r.lastTS[n-1-maintLag], r.node.VisibleTS(), floor.Load())
		if sp.vacuumEvery > 0 && n%sp.vacuumEvery == 0 {
			t0 := clk.now()
			r.node.Vacuum(wm)
			t1 := clk.now()
			m.vacuumNS = append(m.vacuumNS, t1-t0)
			tb.add(0, "memtable.vacuum", int64(seq), t0, t1)
		}
		if sp.compactEvery > 0 && n%sp.compactEvery == 0 {
			t0 := clk.now()
			m.frozen += r.node.Compact(wm)
			t1 := clk.now()
			m.compactNS = append(m.compactNS, t1-t0)
			tb.add(0, "colstore.compact", int64(seq), t0, t1)
		}
		if sp.checkpointEvery > 0 && n%sp.checkpointEvery == 0 {
			t0 := clk.now()
			if err := r.sup.Checkpoint(); err != nil && m.ckptErr == nil {
				m.ckptErr = err
			}
			t1 := clk.now()
			m.ckptNS = append(m.ckptNS, t1-t0)
			tb.add(0, "recovery.checkpoint", int64(seq), t0, t1)
		}
	}
}

// catchUp sends encs unpaced into an empty replica and waits until a
// snapshot at the last one is admitted on every written table. It returns
// the transactions per second from the first Send to that admission, the
// drain from the last Send to it in ms, the process's processor time per
// transaction over the same span in µs, and the run times of both ends.
func catchUp(r *replica, encs []epoch.Encoded, st *stamps, written []wal.TableID, clk clock) (tps, drainMS, cpuUS float64, start, visible int64, err error) {
	cpu0 := cpuTime()
	start = clk.now()
	txns := 0
	for seq := range encs {
		st.sendStart[seq] = clk.now()
		if err := r.sender.Send(&encs[seq]); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("catch-up send %d: %w", seq, err)
		}
		st.sendEnd[seq] = clk.now()
		txns += encs[seq].TxnCount
	}
	lastSend := clk.now()
	ts := encs[len(encs)-1].LastCommitTS
	if sn := r.node.Query(ts, written...); sn.TS < ts {
		return 0, 0, 0, 0, 0, fmt.Errorf("catch-up snapshot at %d below requested %d", sn.TS, ts)
	}
	visible = clk.now()
	cpuUS = float64(cpuTime()-cpu0) / 1e3 / float64(txns)
	return float64(txns) / (float64(visible-start) / 1e9), float64(visible-lastSend) / 1e6, cpuUS, start, visible, nil
}

// threadCPU returns the processor time the calling thread has used, in
// nanoseconds.
func threadCPU() int64 { return cpuClock(clockThreadCPUTime) }

// cpuTime returns the processor time all of the process's threads have
// used, in nanoseconds.
func cpuTime() int64 { return cpuClock(clockProcessCPUTime) }

// Linux's CPU-time clocks. getrusage would do for the process, but it
// reports a thread's time in scheduler ticks, coarser than a query.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return ts.Nano()
}

// queryRec is what the query issuer records per query.
type queryRec struct {
	start, admitted, answered int64
	cpu                       int64 // the issuing thread's processor time, admission to answer
	// idle: the issuer had finished every earlier query by this one's
	// due time and slept until it.
	idle   bool
	digest uint64
	err    error
	bad    string // a snapshot-bound violation
}

// Run executes one run of the configured workload.
func Run(cfg Config) (*Result, error) {
	sp, err := lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.SetupReps <= 0 {
		cfg.SetupReps = 3
	}
	if cfg.CatchupAfter <= 0 {
		cfg.CatchupAfter = 3
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = os.TempDir()
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	catchEpochs := max(1, int(float64(sp.catchupTxns)*cfg.Scale)/sp.epochSize)
	epochNS := int64(sp.epochSize) * 1e9 / int64(sp.pacedRate)
	paced := int(cfg.Seconds * 1e9 / float64(epochNS))
	queryNS := int64(1e9) / int64(sp.queryRate)
	nq := int(cfg.Seconds * float64(sp.queryRate))
	if paced < 1 || nq < 1 {
		return nil, fmt.Errorf("-seconds %g schedules %d paced epochs and %d queries; need at least one of each", cfg.Seconds, paced, nq)
	}
	total := catchEpochs + paced
	clk := clock{t0: time.Now()}
	tr := &tracer{on: cfg.Trace}
	log := cfg.Log

	// Set-up and catch-up, several times: generate and encode the
	// primary stream and bring up the replica and its link (setup_s),
	// then send the catch-up epochs unpaced into the empty replica
	// (catchup_cpu_us_per_txn and catchup_txns_per_s, which more
	// catch-ups after the paced phase add to). Both report the median over the repetitions; all but the
	// last replica are torn down, the last one goes on to the paced
	// phase.
	setupBuf, maintBuf := tr.buf(), tr.buf()
	var (
		s                *stream
		rep              *replica
		st               *stamps
		queries          []scheduled
		floor            atomic.Int64
		setupNS          []int64
		genUS, encUS     []float64
		catchTPS, drains []float64
		catchCPU         []float64
		catchStart       int64
		catchVisible     int64
		ms0, ms1         runtime.MemStats
	)
	defer func() {
		if rep != nil {
			rep.close()
		}
	}()
	gen := sp.gen()
	written := workload.TableIDs(gen.Tables())
	hot := workload.HotTables(gen.Tables())
	for i := 0; i < cfg.SetupReps; i++ {
		if rep != nil {
			rep.close()
			rep, s = nil, nil
		}
		runtime.GC()
		t0 := clk.now()
		s = genStream(sp, cfg.Seed, total*sp.epochSize, clk)
		st = newStamps(total)
		rep, err = bringUp(sp, &cfg, clk, st, i)
		if err != nil {
			return nil, fmt.Errorf("bring-up: %w", err)
		}
		t1 := clk.now()
		setupNS = append(setupNS, t1-t0)
		genUS = append(genUS, float64(s.at[1]-s.at[0])/1e3/float64(s.txns))
		encUS = append(encUS, float64(s.at[2]-s.at[1])/1e3/float64(s.txns))
		root := setupBuf.add(0, "setup", int64(i), t0, t1)
		setupBuf.add(root, "primary.gen", int64(i), s.at[0], s.at[1])
		setupBuf.add(root, "epoch.encode", int64(i), s.at[1], s.at[2])
		setupBuf.add(root, "bringup", int64(i), s.at[2], t1)
		if len(s.encs) != total {
			return nil, fmt.Errorf("stream has %d epochs, want %d", len(s.encs), total)
		}

		if queries == nil {
			// The query schedule: fixed by the workload and -seconds.
			qrng := rand.New(rand.NewSource(1))
			queries = make([]scheduled, nq)
			for j := range queries {
				due := int64(j) * queryNS
				idx := catchEpochs - 1 + int(due/epochNS)
				q := &queries[j]
				q.due, q.ts = due, s.encs[idx].LastCommitTS
				q.tables, q.ops = sp.query(qrng, j, int64(idx+1)*int64(sp.epochSize))
			}
			floor.Store(queries[0].ts)
		}
		rep.lastTS = make([]int64, total)
		for k := range s.encs {
			rep.lastTS[k] = s.encs[k].LastCommitTS
		}
		rep.startMaintenance(sp, &floor, clk, maintBuf)

		runtime.GC()
		runtime.ReadMemStats(&ms0)
		tps, drain, cpu, t2, t3, err := catchUp(rep, s.encs[:catchEpochs], st, written, clk)
		if err != nil {
			return nil, err
		}
		catchTPS, drains, catchCPU = append(catchTPS, tps), append(drains, drain), append(catchCPU, cpu)
		catchStart, catchVisible = t2, t3
	}

	// Paced phase: sender, freshness observer and query issuer run on
	// fixed schedules from pacedStart. It starts from a collected heap,
	// so the collector's cycles fall at the same points in every run.
	runtime.GC()
	pacedStart := clk.now() + int64(20*time.Millisecond)
	due := func(i int) int64 { return pacedStart + int64(i+1)*epochNS }
	hotWait, hotAt := make([]int64, paced), make([]int64, paced)
	coldWait, coldAt := make([]int64, paced), make([]int64, paced)
	recs := make([]queryRec, nq)
	var violations atomic.Int64
	var sendErr error
	opNS := make([][]int64, numOpKinds)
	queryBuf := tr.buf()

	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // sender
		defer wg.Done()
		for i := 0; i < paced; i++ {
			seq := catchEpochs + i
			clk.sleepUntil(due(i))
			st.sendStart[seq] = clk.now()
			if err := rep.sender.Send(&s.encs[seq]); err != nil {
				sendErr = fmt.Errorf("paced send %d: %w", seq, err)
				return
			}
			st.sendEnd[seq] = clk.now()
		}
	}()
	observe := func(tables []wal.TableID, wait, at []int64) {
		defer wg.Done()
		for i := 0; i < paced; i++ {
			ts := s.encs[catchEpochs+i].LastCommitTS
			wait[i] = clk.now()
			sn := rep.node.Query(ts, tables...)
			at[i] = clk.now()
			if sn.TS < ts {
				violations.Add(1)
			}
		}
	}
	go observe(hot, hotWait, hotAt)
	go observe(written, coldWait, coldAt)
	go func() { // query issuer
		defer wg.Done()
		// One thread, so that its processor time is the queries'.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for j := range queries {
			q := &queries[j]
			rc := &recs[j]
			rc.idle = clk.now() < pacedStart+q.due
			clk.sleepUntil(pacedStart + q.due)
			floor.Store(q.ts)
			cpu0 := threadCPU()
			rc.start = clk.now()
			adm, err := rep.router.Admit(q.ts, q.tables...)
			rc.admitted = clk.now()
			if err != nil {
				rc.err, rc.answered = err, rc.admitted
				continue
			}
			if adm.TS < q.ts {
				rc.bad = fmt.Sprintf("admitted at %d below requested %d", adm.TS, q.ts)
			}
			sn := adm.Replica.(cluster.Snapshotter).Query(adm.TS, q.tables...)
			qid, eid := queryBuf.id(), queryBuf.id()
			rc.digest, rc.err = execQuery(sn, q.ts, q.ops, rc, clk, queryBuf, eid, j, opNS)
			adm.Done()
			rc.answered = clk.now()
			rc.cpu = threadCPU() - cpu0
			if cfg.corrupt != nil {
				rc.digest = cfg.corrupt(j, rc.digest)
			}
			queryBuf.put(qid, 0, "query", int64(j), pacedStart+q.due, rc.answered)
			queryBuf.add(qid, "driver.query_late", int64(j), pacedStart+q.due, rc.start)
			queryBuf.add(qid, "cluster.admit", int64(j), rc.start, rc.admitted)
			queryBuf.put(eid, qid, "query.exec", int64(j), rc.admitted, rc.answered)
		}
	}()
	wg.Wait()
	if sendErr != nil {
		return nil, sendErr
	}
	if err := rep.finish(); err != nil {
		return nil, fmt.Errorf("end of stream: %w", err)
	}
	// A last maintenance pass at the final commit, so the heap is read
	// with the same rows frozen and pruned in every run. The memtable
	// recycles an epoch arena only at the vacuum after the one that
	// released its last version, hence two vacuums.
	finalTS := s.encs[total-1].LastCommitTS
	if sp.compactEvery > 0 {
		rep.node.Compact(finalTS)
	}
	if sp.vacuumEvery > 0 {
		rep.node.Vacuum(finalTS)
		rep.node.Vacuum(finalTS)
	}
	runtime.ReadMemStats(&ms1)
	mt := rep.maint
	if mt.ckptErr != nil {
		return nil, fmt.Errorf("checkpoint: %w", mt.ckptErr)
	}
	var spoolBytes int64
	if rep.dir != "" {
		spoolBytes = dirBytes(filepath.Join(rep.dir, "spool"))
	}

	// Attempted: every epoch sent (the repeated catch-ups included), every
	// query and, below, every final check.
	res := &Result{Correct: true}
	res.Attempted = (cfg.SetupReps-1+cfg.CatchupAfter)*catchEpochs + total + nq
	for j := range recs {
		if recs[j].err != nil {
			res.Failed++
			fmt.Fprintf(log, "query %d failed: %v\n", j, recs[j].err)
		}
		if recs[j].bad != "" {
			res.Correct = false
			res.Mismatches = append(res.Mismatches, fmt.Sprintf("query %d: %s", j, recs[j].bad))
		}
	}
	if v := violations.Load(); v > 0 {
		res.Correct = false
		res.Mismatches = append(res.Mismatches, fmt.Sprintf("%d snapshots admitted below their requested timestamp", v))
	}

	// Correctness, outside every timer: advance the reference model in
	// commit order and compare each answer at its snapshot timestamp.
	m := NewModel()
	qi := 0
	for i := range s.encs {
		txns, err := s.encs[i].Decode()
		if err != nil {
			return nil, fmt.Errorf("decode epoch %d: %w", i, err)
		}
		for k := range txns {
			m.Apply(&txns[k])
		}
		for ; qi < nq && queries[qi].ts == s.encs[i].LastCommitTS; qi++ {
			if recs[qi].err != nil {
				continue
			}
			if want := m.answer(queries[qi].ops); want != recs[qi].digest {
				res.Correct = false
				res.Mismatches = append(res.Mismatches, fmt.Sprintf("query %d at ts %d: replica digest %x, model %x", qi, queries[qi].ts, recs[qi].digest, want))
			}
		}
	}
	if qi != nq {
		return nil, fmt.Errorf("%d queries have snapshots off the epoch boundaries", nq-qi)
	}
	// A pruning replica sums only the columns every write carried; see
	// chSumCol.
	checks, failed, bad := finalChecks(rep, m, finalTS, sp.vacuumEvery > 0 || sp.compactEvery > 0)
	res.Attempted += checks
	res.Failed += failed
	if len(bad) > 0 {
		res.Correct = false
		res.Mismatches = append(res.Mismatches, bad...)
	}

	// Release the stream, model and schedule, then measure the heap the
	// replica keeps.
	txnsTotal := float64(s.txns)
	s, m, queries = nil, nil, nil
	runtime.GC()
	runtime.GC()
	var msHeap runtime.MemStats
	runtime.ReadMemStats(&msHeap)
	heapMB := float64(msHeap.HeapAlloc) / (1 << 20)

	// The catch-ups after the paced phase, once its replica is measured
	// and closed: a fresh replica each, fed the catch-up epochs of the
	// same seed's whole stream, generated again outside every timer so
	// that the heap around them is the one the first catch-ups saw.
	shipped, lastTS := rep.shipped, rep.lastTS
	rep.close()
	rep = nil
	if cfg.CatchupAfter > 0 {
		cs := genStream(sp, cfg.Seed, total*sp.epochSize, clk)
		if got, want := cs.encs[total-1].LastCommitTS, lastTS[total-1]; got != want {
			return nil, fmt.Errorf("regenerated stream ends at ts %d, the run's at %d", got, want)
		}
		var cfloor atomic.Int64
		cfloor.Store(lastTS[catchEpochs-1])
		for i := 0; i < cfg.CatchupAfter; i++ {
			cst := newStamps(catchEpochs)
			rep, err = bringUp(sp, &cfg, clk, cst, cfg.SetupReps+i)
			if err != nil {
				return nil, fmt.Errorf("bring-up: %w", err)
			}
			rep.lastTS = lastTS
			rep.startMaintenance(sp, &cfloor, clk, maintBuf)
			runtime.GC()
			tps, drain, cpu, _, _, err := catchUp(rep, cs.encs[:catchEpochs], cst, written, clk)
			if err != nil {
				return nil, err
			}
			catchTPS, drains, catchCPU = append(catchTPS, tps), append(drains, drain), append(catchCPU, cpu)
			rep.close()
			rep = nil
		}
	}

	// Latency samples.
	var freshHot, freshCold, hotLag, coldLag, arrive, sendLate []int64
	for i := 0; i < paced; i++ {
		seq := catchEpochs + i
		d := due(i)
		freshHot = append(freshHot, hotAt[i]-d)
		freshCold = append(freshCold, coldAt[i]-d)
		hotLag = append(hotLag, hotAt[i]-st.arrive[seq])
		coldLag = append(coldLag, coldAt[i]-st.arrive[seq])
		arrive = append(arrive, st.arrive[seq]-d)
		sendLate = append(sendLate, st.sendStart[seq]-d)
	}
	var qLat, qLate, admitNS, execNS []int64
	typeLat := make([][]float64, sp.queryTypes)
	typeCPU := make([][]float64, sp.queryTypes)
	for j := range recs {
		rc := &recs[j]
		if rc.err != nil {
			continue
		}
		d := pacedStart + int64(j)*queryNS
		qLat = append(qLat, rc.answered-d)
		qLate = append(qLate, rc.start-d)
		admitNS = append(admitNS, rc.admitted-rc.start)
		execNS = append(execNS, rc.answered-rc.admitted)
		// Issued: the due time, unless the issuer was idle then and
		// woke for the query after it (the runtime's timers wake up to
		// about a millisecond late).
		issued := d
		if rc.idle {
			issued = rc.start
		}
		typeLat[j%sp.queryTypes] = append(typeLat[j%sp.queryTypes], float64(rc.answered-issued)/1e6)
		typeCPU[j%sp.queryTypes] = append(typeCPU[j%sp.queryTypes], float64(rc.cpu)/1e3)
	}
	var feedNS, sendNS []int64
	for seq := 0; seq < total; seq++ {
		feedNS = append(feedNS, st.fed[seq]-st.arrive[seq])
		sendNS = append(sendNS, st.sendEnd[seq]-st.sendStart[seq])
	}
	if cfg.Trace {
		feed := "replay.feed"
		if sp.durable {
			feed = "recovery.feed"
		}
		eb := tr.buf()
		root := eb.add(0, "catchup", -1, catchStart, catchVisible)
		for seq := 0; seq < catchEpochs; seq++ {
			eb.add(root, "ship.send", int64(seq), st.sendStart[seq], st.sendEnd[seq])
			eb.add(root, feed, int64(seq), st.arrive[seq], st.fed[seq])
		}
		// A paced epoch's blocking path, as consecutive spans: arrive
		// (driver lateness and Send inside it), feed or spool, the hot
		// stage from Feed's return, then the cold stage. An observer that
		// started waiting late leaves its delay uncovered.
		for i := 0; i < paced; i++ {
			seq := catchEpochs + i
			d, a, f := due(i), st.arrive[seq], st.fed[seq]
			root := eb.add(0, "fresh", int64(seq), d, coldAt[i])
			arr := eb.add(root, "ship.arrive", int64(seq), d, a)
			eb.add(arr, "driver.send_late", int64(seq), d, st.sendStart[seq])
			eb.add(arr, "ship.send", int64(seq), st.sendStart[seq], st.sendEnd[seq])
			eb.add(root, feed, int64(seq), a, f)
			hs, he := max(f, hotWait[i]), max(f, hotAt[i])
			eb.add(root, "replay.hot_wait", int64(seq), min(hs, he), he)
			cs, ce := max(he, coldWait[i]), max(he, coldAt[i])
			eb.add(root, "replay.cold_wait", int64(seq), min(cs, ce), ce)
		}
		spans := tr.spans()
		if cfg.TraceOut != "" {
			if err := WriteTrace(cfg.TraceOut, spans); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
			fmt.Fprintf(log, "trace: %d spans written to %s\n", len(spans), cfg.TraceOut)
		}
		Summarize(log, spans, 0.05)
	}

	fl := cfg.Floors
	var perr error
	p := func(xs []float64, q float64) float64 {
		v, err := blockPct(xs, q, fl)
		if err != nil && perr == nil {
			perr = err
		}
		return v
	}
	setupS := make([]float64, len(setupNS))
	for i, v := range setupNS {
		setupS[i] = float64(v) / 1e9
	}
	// A mix's median lands between the clusters its query types form, so
	// a small shift in their shares moves it; the mean of the per-type
	// medians does not have that step.
	typeP50, typeCPUP50 := 0.0, 0.0
	for k := range typeLat {
		typeP50 += p(typeLat[k], 50) / float64(len(typeLat))
		typeCPUP50 += p(typeCPU[k], 50) / float64(len(typeCPU))
	}
	// End to end are set-up time and processor time: on a shared host
	// whose hypervisor takes back 5-25% of the vCPUs' time under load,
	// every wall-clock rate and latency of the replica moved between
	// runs by more than a bound could allow (see README).
	res.EndToEnd = []Metric{
		{"setup_s", "s", p(setupS, 50)},
		{"catchup_cpu_us_per_txn", "us/txn", p(catchCPU, 50)},
		{"query_cpu_us", "us", typeCPUP50},
	}
	nodeFeed, supFeed := mean(us(feedNS)), 0.0
	if sp.durable {
		nodeFeed, supFeed = 0, nodeFeed
	}
	opP50 := func(k opKind) float64 { return p(us(opNS[k]), 50) }
	// Catch-up rate, query latency, freshness and the replica heap are
	// reported with the layers: on a shared 2-vCPU host their run-to-run
	// spread exceeds, on some workload, any bound that could gate a
	// change (see README, "Seeds and steadiness").
	res.PerLayer = []Metric{
		{"catchup_txns_per_s", "txns/s", p(catchTPS, 50)},
		{"query_type_p50_ms", "ms", typeP50},
		{"replica_heap_mb", "MB", heapMB},
		{"fresh_hot_p50_ms", "ms", p(ms(freshHot), 50)},
		{"fresh_cold_p50_ms", "ms", p(ms(freshCold), 50)},
		{"fresh_hot_p90_ms", "ms", p(ms(freshHot), 90)},
		{"fresh_cold_p90_ms", "ms", p(ms(freshCold), 90)},
		{"query_p50_ms", "ms", p(ms(qLat), 50)},
		{"query_p99_ms", "ms", p(ms(qLat), 99)},
		{"primary.gen_us_per_txn", "us/txn", p(genUS, 50)},
		{"epoch.encode_us_per_txn", "us/txn", p(encUS, 50)},
		{"ship.send_block_ms", "ms", sum(ms(sendNS))},
		{"ship.arrive_p50_ms", "ms", p(ms(arrive), 50)},
		{"ship.wire_bytes_per_txn", "bytes/txn", float64(shipped.BytesWire) / txnsTotal},
		{"ship.raw_bytes_per_txn", "bytes/txn", float64(shipped.BytesRaw) / txnsTotal},
		{"recovery.feed_us_per_epoch", "us/epoch", supFeed},
		{"recovery.checkpoint_ms_p50", "ms", p(ms(mt.ckptNS), 50)},
		{"recovery.spool_bytes_per_txn", "bytes/txn", float64(spoolBytes) / txnsTotal},
		{"replay.feed_us_per_epoch", "us/epoch", nodeFeed},
		{"replay.hot_lag_p50_ms", "ms", p(ms(hotLag), 50)},
		{"replay.hot_lag_p90_ms", "ms", p(ms(hotLag), 90)},
		{"replay.cold_lag_p50_ms", "ms", p(ms(coldLag), 50)},
		{"replay.cold_lag_p90_ms", "ms", p(ms(coldLag), 90)},
		{"replay.catchup_drain_ms", "ms", p(drains, 50)},
		{"memtable.vacuum_ms_total", "ms", sum(ms(mt.vacuumNS))},
		{"memtable.vacuum_ms_p50", "ms", p(ms(mt.vacuumNS), 50)},
		{"colstore.compact_ms_total", "ms", sum(ms(mt.compactNS))},
		{"colstore.compact_ms_p50", "ms", p(ms(mt.compactNS), 50)},
		{"colstore.rows_frozen", "count", float64(mt.frozen)},
		{"cluster.admit_p50_us", "us", p(us(admitNS), 50)},
		{"cluster.admit_p99_us", "us", p(us(admitNS), 99)},
		{"query.exec_p50_us", "us", p(us(execNS), 50)},
		{"query.exec_p99_us", "us", p(us(execNS), 99)},
		{"query.get_us_p50", "us", opP50(opGet)},
		{"query.scan_us_p50", "us", opP50(opScan)},
		{"query.count_us_p50", "us", opP50(opCount)},
		{"query.sum_us_p50", "us", opP50(opSum)},
		{"query.scankeys_us_p50", "us", opP50(opScanKeys)},
		{"go.alloc_bytes_per_txn", "bytes/txn", float64(ms1.TotalAlloc-ms0.TotalAlloc) / txnsTotal},
		{"go.gc_cycles", "count", float64(ms1.NumGC - ms0.NumGC)},
		{"go.gc_pause_ms_total", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6},
		{"driver.send_late_p90_ms", "ms", p(ms(sendLate), 90)},
		{"driver.query_late_p99_ms", "ms", p(ms(qLate), 99)},
	}
	if perr != nil {
		return nil, fmt.Errorf("percentile floor: %w", perr)
	}

	fmt.Fprintf(log, "%s seed %d: epochs %d attempted (%d×%d catch-up, %d paced), 0 failed; queries %d attempted, %d failed; final checks %d attempted, %d failed\n",
		sp.name, cfg.Seed, (cfg.SetupReps+cfg.CatchupAfter)*catchEpochs+paced, cfg.SetupReps+cfg.CatchupAfter, catchEpochs, paced, nq, res.Failed-failed, checks, failed)
	fmt.Fprintf(log, "catch-ups (txns/s, in run order): %.0f\n", catchTPS)
	fmt.Fprintf(log, "samples: fresh_* %d epochs, query_* %d queries, setup_s %d set-ups, catchup_txns_per_s %d catch-ups, vacuum %d, compact %d, checkpoint %d\n",
		len(freshHot), len(qLat), len(setupNS), len(catchTPS), len(mt.vacuumNS), len(mt.compactNS), len(mt.ckptNS))
	return res, nil
}

// execQuery runs a query's operations on an admitted snapshot, checks no
// result carries a commit above ts, and folds the results into a digest.
func execQuery(sn *query.Snapshot, ts int64, ops []op, rc *queryRec, clk clock, tb *spanBuf, parent int64, j int, opNS [][]int64) (uint64, error) {
	h := newDigest()
	above := func(cts int64) {
		if cts > ts && rc.bad == "" {
			rc.bad = fmt.Sprintf("result carries commit %d above snapshot %d", cts, ts)
		}
	}
	for _, o := range ops {
		var t0 int64
		if tb.on {
			t0 = clk.now()
		}
		switch o.kind {
		case opGet:
			row, ok, err := sn.Get(o.table, o.a)
			if err != nil {
				return 0, err
			}
			h.bool(ok)
			if ok {
				above(row.CommitTS)
				h.row(row.Key, row.CommitTS, row.Columns)
			}
		case opScan:
			n := uint64(0)
			err := sn.Scan(o.table, o.a, o.b, func(row query.Row) bool {
				above(row.CommitTS)
				h.row(row.Key, row.CommitTS, row.Columns)
				n++
				return true
			})
			if err != nil {
				return 0, err
			}
			h.u64(n)
		case opScanKeys:
			n := uint64(0)
			err := sn.ScanKeys(o.table, o.a, o.b, func(keys []uint64, tss []int64) bool {
				for i, k := range keys {
					above(tss[i])
					h.u64(k)
					h.u64(uint64(tss[i]))
				}
				n += uint64(len(keys))
				return true
			})
			if err != nil {
				return 0, err
			}
			h.u64(n)
		case opCount:
			c, err := sn.Count(o.table)
			if err != nil {
				return 0, err
			}
			h.u64(uint64(c))
		case opSum:
			v, err := sn.SumInt64(o.table, o.col)
			if err != nil {
				return 0, err
			}
			h.u64(uint64(v))
		case opMax:
			v, err := sn.MaxCommitTS(o.table)
			if err != nil {
				return 0, err
			}
			above(v)
			h.u64(uint64(v))
		}
		if tb.on {
			t1 := clk.now()
			opNS[o.kind] = append(opNS[o.kind], t1-t0)
			tb.add(parent, "query."+opNames[o.kind], int64(j), t0, t1)
		}
	}
	return h.sum, nil
}

// finalChecks compares every written table's Count and SumInt64 of
// every column at the final commit timestamp with the model, and the
// replica's visible timestamp with the stream's last commit.
func finalChecks(r *replica, m *Model, finalTS int64, whole bool) (attempted, failed int, bad []string) {
	attempted++
	if v := r.node.VisibleTS(); v != finalTS {
		bad = append(bad, fmt.Sprintf("visible ts %d, stream's last commit %d", v, finalTS))
	}
	tables := m.Tables()
	adm, err := r.router.Admit(finalTS, tables...)
	if err != nil {
		return attempted + 1, failed + 1, append(bad, fmt.Sprintf("final admission: %v", err))
	}
	defer adm.Done()
	sn := adm.Replica.(cluster.Snapshotter).Query(adm.TS, tables...)
	for _, t := range tables {
		attempted++
		n, err := sn.Count(t)
		if err != nil {
			failed++
		} else if n != m.Count(t) {
			bad = append(bad, fmt.Sprintf("table %d: Count %d, model %d", t, n, m.Count(t)))
		}
		for _, col := range m.Columns(t, whole) {
			attempted++
			v, err := sn.SumInt64(t, col)
			if err != nil {
				failed++
			} else if want := m.SumInt64(t, col); v != want {
				bad = append(bad, fmt.Sprintf("table %d col %d: SumInt64 %d, model %d", t, col, v, want))
			}
		}
	}
	return attempted, failed, bad
}
