package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// eventJSON is the decode-side shadow of appendEventJSON's wire format.
type eventJSON struct {
	Seq    uint64  `json:"seq"`
	TUS    int64   `json:"t_us"`
	Kind   string  `json:"kind"`
	Server int32   `json:"server"`
	Pool   string  `json:"pool"`
	MHz    float64 `json:"mhz"`
	Value  float64 `json:"value"`
	Reason string  `json:"reason"`
	Label  string  `json:"label"`
}

// parseEventLine decodes one non-comment JSONL line into an Event.
func parseEventLine(raw []byte) (Event, error) {
	ej := eventJSON{Server: -1}
	if err := json.Unmarshal(raw, &ej); err != nil {
		return Event{}, err
	}
	kind, ok := ParseKind(ej.Kind)
	if !ok {
		return Event{}, fmt.Errorf("unknown kind %q", ej.Kind)
	}
	pool := PoolNone
	switch ej.Pool {
	case "low":
		pool = PoolLow
	case "high":
		pool = PoolHigh
	}
	return Event{
		At:     time.Duration(ej.TUS) * time.Microsecond,
		Kind:   kind,
		Server: ej.Server,
		Pool:   pool,
		MHz:    ej.MHz,
		Value:  ej.Value,
		Reason: ej.Reason,
		Label:  ej.Label,
		Seq:    ej.Seq,
	}, nil
}

// ScanEvents streams event JSONL produced by Tracer.WriteJSONL: one callback
// per parsed event, in file order, without materializing the file. Blank
// lines are skipped; `#` provenance lines go to comment (when non-nil)
// instead of the parser.
//
// Sequence integrity: once a line carries a non-zero "seq", every subsequent
// line must continue the sequence exactly — a jump means lines were lost
// (truncated mid-file, a dropped shard of a concatenation), a repeat or
// regression means streams were interleaved. Either fails with the 1-based
// line number instead of silently analyzing a partial stream. Files written
// before sequence numbers existed carry no "seq" and skip the check. A file
// truncated mid-line surfaces as a JSON parse error on that line.
func ScanEvents(r io.Reader, comment func(line string), fn func(ev Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), scanSpansMaxLine)
	line := 0
	lastSeq := uint64(0)
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if raw[0] == '#' {
			if comment != nil {
				comment(string(raw))
			}
			continue
		}
		ev, err := parseEventLine(raw)
		if err != nil {
			return fmt.Errorf("events line %d: %w", line, err)
		}
		if ev.Seq != 0 {
			if lastSeq != 0 && ev.Seq != lastSeq+1 {
				if ev.Seq > lastSeq+1 {
					return fmt.Errorf("events line %d: sequence gap: seq %d follows %d (%d events missing)",
						line, ev.Seq, lastSeq, ev.Seq-lastSeq-1)
				}
				return fmt.Errorf("events line %d: sequence regression: seq %d follows %d",
					line, ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
		}
		if err := fn(ev); err != nil {
			return fmt.Errorf("events line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("events line %d: longer than %d bytes: %w", line+1, scanSpansMaxLine, err)
		}
		return fmt.Errorf("events line %d: %w", line+1, err)
	}
	return nil
}
