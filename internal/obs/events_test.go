package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestKindRoundTripExhaustive walks every declared Kind: each must have a
// distinct non-"unknown" wire name, ParseKind must invert String, and a
// representative event of that kind must survive the JSONL encode/decode
// round trip. A new kind added without a kindNames entry fails here, so
// export wiring can't be forgotten.
func TestKindRoundTripExhaustive(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); int(k) < len(kindNames); k++ {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Fatalf("kind %d has no wire name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share wire name %q", prev, k, name)
		}
		seen[name] = k
		parsed, ok := ParseKind(name)
		if !ok || parsed != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v, true", name, parsed, ok, k)
		}

		ev := Event{
			At: 1500 * time.Microsecond, Kind: k, Server: 3, Pool: PoolLow,
			MHz: 1275, Value: 0.5, Reason: "r", Label: "l", Seq: uint64(k),
		}
		line := appendEventJSON(nil, ev)
		got, err := parseEventLine(line)
		if err != nil {
			t.Fatalf("kind %v: parse: %v\n%s", k, err, line)
		}
		if got != ev {
			t.Fatalf("kind %v did not round-trip:\n got %+v\nwant %+v", k, got, ev)
		}
	}
	if _, ok := ParseKind("unknown"); ok {
		t.Fatal(`ParseKind("unknown") should fail`)
	}
	if _, ok := ParseKind("none"); ok {
		t.Fatal(`ParseKind("none") should fail: KindNone is not a wire kind`)
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind should stringify as unknown")
	}
}

func TestTracerAssignsSequenceNumbers(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 3; i++ {
		tr.Emit(Event{At: time.Duration(i) * time.Second, Kind: KindArrive, Server: -1, Pool: PoolNone})
	}
	evs := tr.Events()
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	tr.Reset()
	tr.Emit(Event{Kind: KindArrive, Server: -1, Pool: PoolNone})
	if got := tr.Events()[0].Seq; got != 1 {
		t.Fatalf("seq after Reset = %d, want 1", got)
	}
}

// TestScanEventsRoundTripAndGapDetection covers the event stream's own
// rules: events survive the round trip, numbered streams must not skip or
// repeat, and unnumbered (legacy) events skip the check. Line-level errors
// are part of the shared TestScanContract.
func TestScanEventsRoundTripAndGapDetection(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{At: 1500 * time.Microsecond, Kind: KindThreshold, Server: -1,
		Pool: PoolNone, Value: 0.87, Reason: "t1.engage", Label: "polca"})
	tr.Emit(Event{At: 2 * time.Second, Kind: KindCapApply, Server: 7, Pool: PoolLow, MHz: 1200})
	tr.Emit(Event{At: 3 * time.Second, Kind: KindCapRelease, Server: 7, Pool: PoolLow})

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	var got []Event
	err := ScanEvents(bytes.NewReader(buf.Bytes()), nil, func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d did not round-trip:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	// Dropping the middle line is a gap with a line number.
	lines := strings.SplitAfter(buf.String(), "\n")
	gappy := lines[0] + lines[2]
	err = ScanEvents(strings.NewReader(gappy), nil, func(Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("gap error = %v", err)
	}

	// Duplicated lines are a regression.
	err = ScanEvents(strings.NewReader(lines[1]+lines[1]), nil, func(Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("regression error = %v", err)
	}

	// Legacy files without seq skip the check entirely.
	legacy := `{"t_us":0,"kind":"req.arrive"}` + "\n" + `{"t_us":5,"kind":"req.drop"}` + "\n"
	if err := ScanEvents(strings.NewReader(legacy), nil, func(Event) error { return nil }); err != nil {
		t.Fatalf("legacy scan: %v", err)
	}

	// The first numbered event may start anywhere.
	if err := ScanEvents(strings.NewReader(lines[1]+lines[2]), nil, func(Event) error { return nil }); err != nil {
		t.Fatalf("stream starting at seq 2: %v", err)
	}
}
