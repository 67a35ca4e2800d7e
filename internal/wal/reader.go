package wal

import (
	"fmt"
	"io"
	"os"

	"repro/internal/telemetry"
)

// Reader streams a half-open offset range of the log, oldest first.
// Create one with Log.ReadFrom. A Reader is not safe for concurrent
// use, but reads run without blocking appends: the range is fixed at
// creation and every record inside it was fully written before then
// (ReadFrom waits out a segment seal in flight, so every segment in
// the range has a file, and writes the pending batch out under the
// lock hold that fixes the range).
type Reader struct {
	log  *Log
	next uint64 // next offset to return
	end  uint64 // one past the last offset to return

	segs []segmentRef // remaining segments overlapping [next, end)
	data []byte       // current segment's bytes
	at   int          // decode position within data
}

type segmentRef struct {
	base uint64
	path string
}

// ReadFrom opens a reader over [from, end) where end is the log's next
// offset at the moment of the call — records appended afterwards are
// not included, so callers can replay history and then switch to live
// delivery without duplicates by resuming at End. A from below the
// oldest retained offset is clamped to it; a from beyond the end
// yields an immediately-exhausted reader. A reader whose own flush
// fails is refused; the log has then fail-stopped and later readers see
// the prefix that did reach the segment files.
func (l *Log) ReadFrom(from uint64) (*Reader, error) {
	l.mu.Lock()
	for l.sealing != nil && !l.closed {
		l.sealed.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	if from < l.first {
		from = l.first
	}
	end := l.next
	var segs []segmentRef
	for i, s := range l.segs {
		segEnd := s.base + s.records
		if i == len(l.segs)-1 {
			segEnd = end
		}
		if segEnd > from && s.base < end {
			segs = append(segs, segmentRef{base: s.base, path: s.path})
		}
	}
	l.mu.Unlock()
	if l.tel != nil {
		l.tel.replays.Inc()
	}
	l.rec.Record(telemetry.KindWALReplay, 0, from, int64(from), int64(end), 0, 0)
	return &Reader{log: l, next: from, end: end, segs: segs}, nil
}

// End returns one past the last offset this reader will yield. Live
// delivery resumed at End observes every record exactly once.
func (r *Reader) End() uint64 { return r.end }

// Next returns the record at the reader's cursor and advances it,
// or io.EOF once the range is exhausted. A segment deleted by
// retention mid-replay surfaces as an error, never as a silent gap.
func (r *Reader) Next() (Record, error) {
	for {
		if r.next >= r.end {
			return Record{}, io.EOF
		}
		if r.data == nil {
			if len(r.segs) == 0 {
				return Record{}, fmt.Errorf("wal: offset %d missing: log metadata inconsistent", r.next)
			}
			seg := r.segs[0]
			data, err := os.ReadFile(seg.path)
			if err != nil {
				if os.IsNotExist(err) {
					return Record{}, fmt.Errorf("wal: offset %d no longer retained (segment deleted mid-replay): %w", r.next, err)
				}
				return Record{}, fmt.Errorf("wal: reading segment: %w", err)
			}
			r.data, r.at = data, 0
		}
		if r.at >= len(r.data) {
			// Segment exhausted; the next offset lives in the next one.
			r.data, r.segs = nil, r.segs[1:]
			continue
		}
		rec, n, err := DecodeRecord(r.data[r.at:])
		if err != nil {
			// Inside [next, end) every record was fully written before the
			// reader was created, so this is on-disk corruption.
			return Record{}, fmt.Errorf("wal: replay at offset %d: %w", r.next, err)
		}
		r.at += n
		if rec.Offset < r.next {
			continue // earlier record in the first segment, before from
		}
		if rec.Offset != r.next {
			return Record{}, fmt.Errorf("%w: replay expected offset %d, found %d", ErrCorruptRecord, r.next, rec.Offset)
		}
		r.next++
		if r.log.tel != nil {
			r.log.tel.replayedRecords.Inc()
		}
		return rec, nil
	}
}
