package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

var clockBase = time.Now()

// now is nanoseconds on the monotonic clock since process start.
func now() int64 { return int64(time.Since(clockBase)) }

// spanKind names a span. Spans come from this package only, around the
// calls into each layer; spans inside the program are a later change.
type spanKind uint8

const (
	spTrial spanKind = iota
	spKernel
	spBaseline
	spDTT
	spRound
	spTStore
	spTStoreBatch
	spTUpdateBatch
	spMergeRead
	spWait
	spRequest
	spServeBatch
	spServeWait
	spServeDrain
)

var spanNames = [...]string{
	spTrial: "trial", spKernel: "kernel", spBaseline: "baseline", spDTT: "dtt",
	spRound: "round", spTStore: "tstore", spTStoreBatch: "tstore_batch",
	spTUpdateBatch: "tupdate_batch", spMergeRead: "merge_read", spWait: "wait",
	spRequest: "request", spServeBatch: "serve.batch", spServeWait: "serve.wait", spServeDrain: "serve.drain",
}

// span is one timed interval. Parent indexes the same tracer's spans (-1
// for a root); Req is the request, round or pass the span belongs to.
type span struct {
	Kind       spanKind
	Parent     int32
	Req        int64
	Start, End int64
}

// tracer holds one goroutine's spans in memory allocated before the
// trial. A nil tracer records nothing and reads no clock, which is how
// the untraced trials run. A full tracer drops and counts.
type tracer struct {
	spans   []span
	limit   int // spans beyond this index are dropped; raised per trial
	dropped int64
}

// spansPerTracer caps one goroutine's recording (32 B a span): enough for
// p99 of a request's phases to have hundreds of samples beyond it while
// the trace file stays a few megabytes.
const spansPerTracer = 1 << 16

func newTracer() *tracer { return &tracer{spans: make([]span, 0, spansPerTracer)} }

// allow opens the span memory up to a share of the whole to the coming
// trial, so that every traced trial gets spans, not only the first.
func (t *tracer) allow(share float64) {
	if t != nil {
		t.limit = min(cap(t.spans), int(share*float64(cap(t.spans))))
	}
}

func (t *tracer) begin(kind spanKind, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Kind: kind, Parent: parent, Req: req, Start: now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = now()
	}
}

// durations returns the lengths in ns of every finished span of a kind.
func (t *tracer) durations(kind spanKind) []int64 {
	var ds []int64
	if t == nil {
		return ds
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.Kind == kind && s.End != 0 {
			ds = append(ds, s.End-s.Start)
		}
	}
	return ds
}

// selfTimes returns each span's duration minus the part its children
// cover, indexed like t.spans. Children never overlap one another here
// (one goroutine, one tracer), so the covered part is their sum.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// counterSample is the program's public counters read at a trial
// boundary, so ratios can be taken where the work happens.
type counterSample struct {
	AtNs   int64            `json:"at_ns"`
	Trial  int              `json:"trial"`
	Edge   string           `json:"edge"` // "start" or "end"
	Values map[string]int64 `json:"values"`
}

// traceSpan is the file form of a span.
type traceSpan struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
	Parent  int    `json:"parent"` // id in this file, -1 for a root
	Req     int64  `json:"req"`
	Track   int    `json:"track"` // the goroutine (client) that recorded it
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Host     hostInfo        `json:"host"`
	Dropped  int64           `json:"dropped_spans"`
	Counters []counterSample `json:"counters"`
	Spans    []traceSpan     `json:"spans"`
}

// writeTrace writes the tracers' spans and the counter samples to
// dir/trace-<workload>.json and returns the path.
func writeTrace(dir, workload string, seed uint64, tracers []*tracer, counters []counterSample) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, Host: host(), Counters: counters}
	for track, t := range tracers {
		base := len(tf.Spans)
		self := selfTimes(t.spans)
		tf.Dropped += t.dropped
		for i, s := range t.spans {
			parent := -1
			if s.Parent >= 0 {
				parent = base + int(s.Parent)
			}
			tf.Spans = append(tf.Spans, traceSpan{ID: base + i, Name: spanNames[s.Kind], StartNs: s.Start, EndNs: s.End,
				SelfNs: self[i], Parent: parent, Req: s.Req, Track: track})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(tf)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("trace: write %s: %w", path, err)
	}
	return path, nil
}
