// Package trace records the co-processor's behaviour as a structured
// event log: every request, hit, miss, placement, eviction,
// configuration, prefetch and error, stamped with the card's virtual
// time. Logs export as JSON lines for offline analysis (agilesim -trace),
// as Chrome trace-event JSON for timeline rendering (see WriteChromeTrace),
// and power the session summaries the examples print.
//
// Recording is opt-in and allocation-light: a nil *Log is a valid sink
// that records nothing, so instrumented code never branches on "is
// tracing enabled" beyond the nil receiver check Go gives for free.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind classifies an event.
type Kind string

// Event kinds.
const (
	KindRequest   Kind = "request"   // a host call arrived (fn)
	KindHit       Kind = "hit"       // served from resident frames
	KindMiss      Kind = "miss"      // function had to be loaded
	KindPlace     Kind = "place"     // frames allocated (frames)
	KindEvict     Kind = "evict"     // function displaced (fn, frames)
	KindConfigure Kind = "configure" // bitstream written (fn, bytes)
	KindRevive    Kind = "revive"    // diff-flow revival (fn, frames)
	KindPrefetch  Kind = "prefetch"  // speculative load (fn)
	KindError     Kind = "error"     // request failed (detail)
	KindSpan      Kind = "span"      // one phase of one request (detail = phase, dur_ps)
	KindDrop      Kind = "drop"      // overflow marker: oldest events dropped (detail)
)

// Event is one log entry. TimePS is the card's virtual time in
// picoseconds at the moment of recording; DurPS, set only on span
// events, is the phase's virtual duration. Card identifies the emitting
// card in a cluster (0 for a single-card system). TraceID/SpanID, set
// when the serving request carried distributed-trace context, attach
// the card-side record to the owning request's span tree (the span id
// is the request's cluster service span).
type Event struct {
	Seq     uint64 `json:"seq"`
	TimePS  uint64 `json:"time_ps"`
	Kind    Kind   `json:"kind"`
	Fn      uint16 `json:"fn,omitempty"`
	Frames  int    `json:"frames,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	Detail  string `json:"detail,omitempty"`
	Card    int    `json:"card,omitempty"`
	DurPS   uint64 `json:"dur_ps,omitempty"`
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
}

// Log is an in-memory event recorder. The zero value is ready to use; a
// nil *Log silently discards events.
type Log struct {
	mu      sync.Mutex
	events  []Event
	seq     uint64
	dropped uint64
	// Cap bounds the log length; beyond it, the oldest half is dropped
	// and a KindDrop marker notes the loss. Zero means 1<<20 events.
	Cap int
}

// Record appends an event. Safe on a nil receiver (no-op) and for
// concurrent use.
func (l *Log) Record(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cap := l.Cap
	if cap == 0 {
		cap = 1 << 20
	}
	if len(l.events) >= cap {
		drop := len(l.events) / 2
		l.events = append(l.events[:0], l.events[drop:]...)
		l.dropped += uint64(drop)
		l.seq++
		marker := Event{
			Seq: l.seq, Kind: KindDrop,
			Detail: fmt.Sprintf("trace overflow: dropped %d oldest events", drop),
		}
		l.events = append(l.events, marker)
	}
	l.seq++
	e.Seq = l.seq
	l.events = append(l.events, e)
}

// Len reports the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Dropped reports how many events overflow handling has discarded over
// the log's lifetime (KindDrop markers themselves are not counted).
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns a copy of the log.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// WriteJSONL streams the log as JSON lines.
func (l *Log) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range l.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
