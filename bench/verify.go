package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/geometry"
	"repro/internal/match"
)

// verdict is the oracle's finding on one run. Failures are deliveries
// that were attempted and did not arrive as they should have: publish
// errors, drops on either side, and oracle mismatches.
type verdict struct {
	attempted  uint64 // deliveries the oracle says the publications called for
	drops      uint64 // broker-side overflow drops plus client-side drops
	pubErrs    uint64
	mismatches uint64 // deliveries the oracle expected and did not see, or saw and did not expect
	fanoutMean float64
	notes      []string
}

func (v *verdict) failed() uint64 { return v.drops + v.pubErrs + v.mismatches }

// correct is true when every delivery is accounted for: the program's
// outputs equal the reference computation, less counted drops.
func (v *verdict) correct() bool { return v.mismatches == 0 && v.pubErrs == 0 }

func (v *verdict) mismatch(n uint64, format string, args ...any) {
	v.mismatches += n
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// ringCount is how many of the global publication indices in [lo, hi)
// carry ring point r.
func ringCount(r, lo, hi int) uint64 {
	upTo := func(x int) int { // indices in [0, x) congruent to r
		n := x / ringSize
		if x%ringSize > r {
			n++
		}
		return n
	}
	return uint64(upTo(hi) - upTo(lo))
}

// matchesPerPoint brute-forces every ring point against the rectangles:
// the reference computation all oracles start from.
func matchesPerPoint(rects []geometry.Rect, ring []geometry.Point) [][]int {
	bf := make(match.BruteForce, len(rects))
	for i, r := range rects {
		bf[i] = match.Subscription{Rect: r, SubscriberID: i}
	}
	out := make([][]int, len(ring))
	for i, p := range ring {
		out[i] = bf.MatchAppend(p, nil)
	}
	return out
}

// verify checks what the consumer received against the oracle. Call it
// after quiesce.
func (s *sut) verify() *verdict {
	v := &verdict{pubErrs: uint64(s.pubErrs)}
	if s.sp.wire {
		s.verifyWire(v)
	} else {
		s.verifyInProcess(v)
	}
	if v.attempted == 0 {
		v.attempted = 1
	}
	return v
}

// verifyInProcess compares the events each subscription received with
// match.BruteForce over the same publications, minus counted drops.
// Every received event was checked on receipt to lie inside its
// subscription with a strictly increasing Seq, so equal counts mean
// equal sets.
func (s *sut) verifyInProcess(v *verdict) {
	rects := make([]geometry.Rect, len(s.recs))
	for i, r := range s.recs {
		rects[i] = r.rect
	}
	perPoint := matchesPerPoint(rects, s.in.ring)
	expected := make([]uint64, len(s.recs))
	for r, ids := range perPoint {
		for _, id := range ids {
			rec := s.recs[id]
			died := rec.died
			if died < 0 {
				died = s.published
			}
			expected[id] += ringCount(r, rec.born, died)
		}
	}
	var got uint64
	for i, rec := range s.recs {
		dropped := rec.sub.Dropped()
		v.attempted += expected[i]
		v.drops += dropped
		got += rec.got
		if rec.bad > 0 {
			v.mismatch(rec.bad, "subscription %d: %d events outside its rectangle or out of Seq order", i, rec.bad)
		}
		if have := rec.got + dropped; have != expected[i] {
			diff := max(have, expected[i]) - min(have, expected[i])
			v.mismatch(diff, "subscription %d: received %d + dropped %d, oracle expects %d", i, rec.got, dropped, expected[i])
		}
	}
	if got != s.delivered {
		v.mismatch(1, "Publish reported %d deliveries, subscribers received %d", s.delivered, got)
	}
	if s.published > 0 {
		v.fanoutMean = float64(v.attempted) / float64(s.published)
	}
}

// verifyWire checks the subscriber client's frames: every publication
// arrived exactly as many times as the oracle says its point matches
// the client's subscriptions, that count equals the publish ack, no
// frame was altered, and the total equals the sum of the acks.
//
// Client.Events does not say which subscription a frame belongs to, so
// "Seq strictly increasing per subscription" is checked in its
// observable form: per publication, exactly the expected number of
// frames, none duplicated beyond it.
func (s *sut) verifyWire(v *verdict) {
	perPoint := matchesPerPoint(s.in.rects, s.in.ring)
	v.drops += s.sub.Dropped() + s.br.Stats().Dropped
	if s.recv.bad > 0 {
		v.mismatch(s.recv.bad, "%d frames with a point, payload or Seq that was never published", s.recv.bad)
	}
	for pub := 0; pub < s.published; pub++ {
		want := uint64(len(perPoint[pub%ringSize]))
		v.attempted += want
		var seen uint64
		if pub < len(s.recv.perPub) {
			seen = uint64(s.recv.perPub[pub])
		}
		if ack := uint64(s.acks[pub]); seen != want || ack != want {
			diff := max(seen, want) - min(seen, want) + max(ack, want) - min(ack, want)
			v.mismatch(diff, "publication %d: %d frames, ack %d, oracle expects %d", pub, seen, ack, want)
		}
	}
	if frames := s.recv.frames.Load(); frames != s.delivered {
		v.mismatch(1, "acks sum to %d deliveries, subscriber client decoded %d frames", s.delivered, frames)
	}
	if s.published > 0 {
		v.fanoutMean = float64(v.attempted) / float64(s.published)
	}
}

// replayResult is the durable workload's read-back of its log.
type replayResult struct {
	records int
	elapsed time.Duration
	bytes   int64
}

// replay reads the log back in full through Log.ReadFrom / Reader.Next
// and checks that it returns every retained record up to the head, in
// offset order, byte-identical to what was published. With tr non-nil
// the read-back and each Next are recorded as spans.
func (s *sut) replay(v *verdict, tr *trace) (replayResult, error) {
	var res replayResult
	first, next := s.log.FirstOffset(), s.log.NextOffset()
	if next-1 != uint64(s.published) {
		v.mismatch(1, "log head at offset %d after %d acknowledged publications", next-1, s.published)
	}
	res.bytes = s.log.Stats().Bytes
	t0 := now()
	rd, err := s.log.ReadFrom(first)
	if err != nil {
		return res, fmt.Errorf("replay: %w", err)
	}
	root := -1
	if tr != nil {
		root = tr.add(span{Name: spanReplay, Pub: -1, Parent: -1, Start: t0})
	}
	want := first
	for {
		n0 := now()
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, fmt.Errorf("replay at offset %d: %w", want, err)
		}
		if tr != nil {
			tr.add(span{Name: spanNext, Pub: int(rec.Offset) - 1, Parent: root, Start: n0, End: now()})
		}
		pub := int(rec.Offset) - 1
		if rec.Offset != want ||
			!slices.Equal(rec.Point, s.in.ring[pub%ringSize]) ||
			!bytes.Equal(rec.Payload, s.in.payloads[pub%ringSize]) {
			v.mismatch(1, "replay: record at offset %d (expected %d) differs from what was published", rec.Offset, want)
		}
		want++
		res.records++
	}
	end := now()
	res.elapsed = time.Duration(end - t0)
	if root >= 0 {
		tr.spans[root].End = end
	}
	if want != next {
		v.mismatch(next-want, "replay stopped at offset %d, log head is %d", want, next)
	}
	v.attempted += uint64(res.records)
	return res, nil
}
