package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// Span is one timed interval of a traced run. Start and End are
// nanoseconds since the run began; Parent is 0 for a root; Key is the
// epoch sequence or query index the span belongs to.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Key    int64  `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer is the span name up to its first dot: the module it times.
func (s *Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory, one buffer per recording goroutine, and
// writes them out when the run ends. A disabled tracer records nothing.
type tracer struct {
	on   bool
	mu   sync.Mutex
	bufs []*spanBuf
}

type spanBuf struct {
	on    bool
	base  int64
	n     int64
	spans []Span
}

// buf returns a new buffer for one goroutine's spans.
func (tr *tracer) buf() *spanBuf {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b := &spanBuf{on: tr.on, base: int64(len(tr.bufs)+1) << 40}
	tr.bufs = append(tr.bufs, b)
	return b
}

// id reserves a span ID, so a parent can be named before it ends.
func (b *spanBuf) id() int64 {
	b.n++
	return b.base | b.n
}

// put records a span under a reserved ID.
func (b *spanBuf) put(id, parent int64, name string, key, start, end int64) {
	if b.on {
		b.spans = append(b.spans, Span{ID: id, Parent: parent, Name: name, Key: key, Start: start, End: end})
	}
}

// add records a span under a fresh ID and returns the ID.
func (b *spanBuf) add(parent int64, name string, key, start, end int64) int64 {
	if !b.on {
		return 0
	}
	id := b.id()
	b.put(id, parent, name, key, start, end)
	return id
}

func (tr *tracer) spans() []Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []Span
	for _, b := range tr.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteTrace writes spans as JSON lines.
func WriteTrace(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTrace reads a file written by WriteTrace.
func ReadTrace(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var out []Span
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace line %d: %w", len(out)+1, err)
		}
		out = append(out, s)
	}
}

// covered returns how much of [from, to] the union of ivs covers.
func covered(from, to int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := from
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], to)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// SelfTimes returns each layer's self time in nanoseconds: its spans'
// durations minus the part of each span its child spans cover.
func SelfTimes(spans []Span) map[string]int64 {
	kids := make(map[int64][][2]int64)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	out := make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		out[s.Layer()] += s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// EpochPath is one paced epoch's freshness and the part of it that no
// span on its blocking path (arrive, feed or spool, hot wait, cold wait)
// covers.
type EpochPath struct {
	Seq       int64
	Fresh     int64 // scheduled commit → visible on every written table, ns
	Uncovered int64 // ns
}

// BlockingPaths computes EpochPath for every "fresh" root span.
func BlockingPaths(spans []Span) []EpochPath {
	kids := make(map[int64][][2]int64)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	var out []EpochPath
	for i := range spans {
		s := &spans[i]
		if s.Name != "fresh" {
			continue
		}
		d := s.End - s.Start
		out = append(out, EpochPath{Seq: s.Key, Fresh: d, Uncovered: d - covered(s.Start, s.End, kids[s.ID])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Summarize prints each layer's self time and the blocking-path
// remainder, flagging epochs whose uncovered share exceeds flag.
func Summarize(w io.Writer, spans []Span, flag float64) (flagged int) {
	self := SelfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "self time by layer (%d spans):\n", len(spans))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %12.3f ms\n", l, float64(self[l])/1e6)
	}
	paths := BlockingPaths(spans)
	var fresh, unc int64
	for _, p := range paths {
		fresh += p.Fresh
		unc += p.Uncovered
		if p.Fresh > 0 && float64(p.Uncovered) > flag*float64(p.Fresh) {
			flagged++
			fmt.Fprintf(w, "  FLAG epoch %d: freshness %.3f ms, uncovered %.3f ms (%.1f%%)\n",
				p.Seq, float64(p.Fresh)/1e6, float64(p.Uncovered)/1e6, 100*float64(p.Uncovered)/float64(p.Fresh))
		}
	}
	share := 0.0
	if fresh > 0 {
		share = float64(unc) / float64(fresh)
	}
	fmt.Fprintf(w, "blocking path: %d paced epochs, uncovered %.3f of %.3f ms freshness (%.2f%%), %d epochs over %.0f%%\n",
		len(paths), float64(unc)/1e6, float64(fresh)/1e6, 100*share, flagged, 100*flag)
	return flagged
}
