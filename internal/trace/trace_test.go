package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Record(Event{Kind: KindRequest})
	if l.Len() != 0 || l.Events() != nil || count(l, KindRequest) != 0 {
		t.Error("nil log misbehaved")
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Error("nil log wrote output")
	}
}

func TestRecordAndQuery(t *testing.T) {
	l := &Log{}
	l.Record(Event{Kind: KindRequest, Fn: 3, TimePS: 100})
	l.Record(Event{Kind: KindHit, Fn: 3, TimePS: 150})
	l.Record(Event{Kind: KindRequest, Fn: 4, TimePS: 200})
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if count(l, KindRequest) != 2 || count(l, KindHit) != 1 || count(l, KindEvict) != 0 {
		t.Error("counts wrong")
	}
	ev := l.Events()
	if ev[0].Seq != 1 || ev[2].Seq != 3 {
		t.Error("sequence numbers wrong")
	}
	// Events() is a copy.
	ev[0].Fn = 99
	if l.Events()[0].Fn != 3 {
		t.Error("Events aliases internal storage")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := &Log{}
	l.Record(Event{Kind: KindConfigure, Fn: 7, Frames: 9, Bytes: 6048, Detail: "framediff", TimePS: 42})
	l.Record(Event{Kind: KindError, Detail: "boom"})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("%d lines", got)
	}
	events, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0] != l.Events()[0] || events[1].Detail != "boom" {
		t.Errorf("round trip mismatch: %+v", events)
	}
}

func TestOverflowDropsOldest(t *testing.T) {
	l := &Log{Cap: 10}
	for i := 0; i < 25; i++ {
		l.Record(Event{Kind: KindRequest, Fn: uint16(i)})
	}
	if l.Len() > 12 {
		t.Errorf("log grew to %d despite cap", l.Len())
	}
	found := false
	for _, e := range l.Events() {
		if e.Kind == KindDrop && strings.Contains(e.Detail, "overflow") {
			found = true
		}
	}
	if !found {
		t.Error("no overflow marker")
	}
	// The marker is not an error: KindError stays clean.
	if got := count(l, KindError); got != 0 {
		t.Errorf("overflow polluted Count(KindError) = %d", got)
	}
	// Dropped events are accounted.
	if l.Dropped() == 0 {
		t.Error("Dropped() = 0 after overflow")
	}
	// The newest event survives.
	ev := l.Events()
	if ev[len(ev)-1].Fn != 24 {
		t.Error("newest event lost")
	}
}

func TestReadJSONLPreservesNewFields(t *testing.T) {
	l := &Log{}
	l.Record(Event{Kind: KindSpan, Fn: 7, TimePS: 100, DurPS: 40, Detail: "configure", Card: 3})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Card != 3 || events[0].DurPS != 40 {
		t.Errorf("span round trip lost fields: %+v", events)
	}
}

func TestConcurrentRecord(t *testing.T) {
	l := &Log{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(Event{Kind: KindRequest, Fn: uint16(g)})
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Errorf("Len = %d, want 800", l.Len())
	}
}

// count tallies the log's events of kind k.
func count(l *Log, k Kind) int {
	n := 0
	for _, e := range l.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// readJSONL parses a JSON-lines log (the inverse of WriteJSONL).
func readJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		out = append(out, e)
	}
	return out, nil
}
