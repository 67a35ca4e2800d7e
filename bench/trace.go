package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Span names. Each is a call the harness makes into one layer.
const (
	spanPublish = "publish"     // Broker.Publish or Client.Publish
	spanMatch   = "match"       // shadow Matcher.MatchAppendStats on the same point
	spanAppend  = "wal.append"  // shadow Log.Append of the same record
	spanRecv    = "recv"        // payload timestamp -> decoded on the subscriber client
	spanReplay  = "wal.replay"  // the whole read-back of the log
	spanNext    = "reader.next" // one Reader.Next inside the replay
)

// span is one timed call into a layer. Times are nanoseconds on the
// run's monotonic clock. Parent is an index into the trace's span list,
// -1 for a root.
//
// A shadow span repeats, outside its parent's interval, work the parent
// did inside a call the harness cannot see into (the broker's own index
// walk, its own Log.Append). It is charged to the parent as if nested.
type span struct {
	Name   string `json:"name"`
	Pub    int    `json:"pub"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the in-memory trace; spans past it still feed the
// aggregate per-layer numbers, they are only left out of the file.
const maxSpans = 200_000

// trace keeps spans in memory until the run ends.
type trace struct {
	spans []span
}

// add appends a span and returns its index, or -1 once the trace is
// full.
func (t *trace) add(s span) int {
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// selfTime is a span's duration minus what its children cover: the
// union of the children's intervals clipped to the parent, plus the
// full duration of every shadow child.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	var covered int64
	for _, c := range children {
		if c.Shadow {
			covered += c.dur()
			continue
		}
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		covered += curHi - curLo
	}
	return max(0, parent.dur()-covered)
}

// layerTime is one span name's totals over a trace.
type layerTime struct {
	Count  int
	Total  int64 // ns
	SelfNS int64 // ns
}

// selfTimes folds the trace into per-name totals.
func (t *trace) selfTimes() map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.dur()
		lt.SelfNS += selfTime(s, children[i])
		out[s.Name] = lt
	}
	return out
}

// write stores the trace as JSON lines: one header object carrying the
// environment record, then one object per span.
func (t *trace) write(path string, env envRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"env": env, "spans": len(t.spans)})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
