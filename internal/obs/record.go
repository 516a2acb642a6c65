package obs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// The three recorders in this package — Tracer (events), SpanTracer
// (request spans) and DecisionRecorder (controller and router decisions) —
// share one record core: recordBuf holds what they record, writeJSONL
// encodes it, and scanJSONL plus seqCheck read it back.

// recordBuf is the mutex-guarded, append-only buffer behind each recorder.
// The zero value is ready to use. A record's 1-based sequence number is its
// position in the buffer, so numbering restarts at 1 after reset. Recorders
// hold mu themselves to read recs in place or to guard state of their own.
type recordBuf[T any] struct {
	mu   sync.Mutex
	recs []T
}

// push appends rec. stamp, when non-nil, then runs under the lock with the
// stored record and its sequence number, so sequence order is buffer order
// and a recorder can update state the same lock guards. (Stamping the
// stored copy rather than rec keeps rec off the heap.)
func (b *recordBuf[T]) push(rec T, stamp func(rec *T, seq uint64)) {
	b.mu.Lock()
	b.recs = append(b.recs, rec)
	if stamp != nil {
		stamp(&b.recs[len(b.recs)-1], uint64(len(b.recs)))
	}
	b.mu.Unlock()
}

func (b *recordBuf[T]) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recs)
}

// snapshot returns a copy of the records in emission order.
func (b *recordBuf[T]) snapshot() []T {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]T, len(b.recs))
	copy(out, b.recs)
	return out
}

// reset discards the records but keeps the buffer's capacity; also, when
// non-nil, runs under the same lock.
func (b *recordBuf[T]) reset(also func()) {
	b.mu.Lock()
	b.recs = b.recs[:0]
	if also != nil {
		also()
	}
	b.mu.Unlock()
}

// writeJSONL writes head (when non-empty) as the first line, then one line
// per record rendered by enc, through one buffered writer. The encoders are
// hand-rolled (fixed field order, omitted zero fields) so identical runs
// produce identical bytes.
func writeJSONL[T any](w io.Writer, head []byte, recs []T, enc func([]byte, T) []byte) error {
	bw := bufio.NewWriter(w)
	if len(head) > 0 {
		if _, err := bw.Write(append(head, '\n')); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 512)
	for _, rec := range recs {
		buf = append(enc(buf[:0], rec), '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// scanMaxLine bounds one JSONL line. Record lines are a few hundred bytes,
// but the limit is generous so a hand-edited or concatenated file fails
// with a line-numbered error rather than a silent mid-file stop.
const scanMaxLine = 64 * 1024 * 1024

// scanJSONL is the line loop behind ScanEvents, ScanSpans and
// ScanDecisions. It streams r without materializing it, skips blank lines,
// hands `#` provenance lines to comment (when non-nil) and every other
// line, trimmed, to fn. Any failure — an error from fn (which aborts the
// scan), a line beyond scanMaxLine, a read error — is reported as
// "<stream> line N: …" with the 1-based line number.
func scanJSONL(r io.Reader, stream string, comment func(line string), fn func(raw []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), scanMaxLine)
	line := 0
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
		if err := fn(raw); err != nil {
			return fmt.Errorf("%s line %d: %w", stream, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("%s line %d: longer than %d bytes: %w", stream, line+1, scanMaxLine, err)
		}
		return fmt.Errorf("%s line %d: %w", stream, line+1, err)
	}
	return nil
}

// seqCheck proves a scanned stream is gap-free: each sequence number must
// follow the previous one exactly. A jump means records were lost
// (truncated mid-file, a dropped shard of a concatenation); a repeat or
// regression means streams were interleaved.
type seqCheck struct {
	noun string // what a gap is missing: "events", "decisions"
	// loose lets records omit the number (seq 0, skipped) and lets the
	// first numbered record start anywhere, as event files may.
	loose bool
	last  uint64
}

func (c *seqCheck) next(seq uint64) error {
	if c.loose && seq == 0 {
		return nil
	}
	if c.loose && c.last == 0 {
		c.last = seq
		return nil
	}
	if seq > c.last+1 {
		return fmt.Errorf("sequence gap: seq %d follows %d (%d %s missing)", seq, c.last, seq-c.last-1, c.noun)
	}
	if seq != c.last+1 {
		return fmt.Errorf("sequence regression: seq %d follows %d", seq, c.last)
	}
	c.last = seq
	return nil
}
