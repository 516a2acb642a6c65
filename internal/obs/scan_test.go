package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// scanStream adapts one of the three JSONL scanners to a common shape so
// TestScanContract can run every case against each of them.
type scanStream struct {
	name string
	head []string  // lines a valid stream opens with
	recs [2]string // two consecutive valid record lines
	bad  string    // a well-formed line with an unknown kind
	scan func(r io.Reader, comment func(string), fn func() error) error
}

var scanStreams = []scanStream{
	{
		name: "events",
		recs: [2]string{`{"seq":1,"t_us":0,"kind":"req.arrive"}`, `{"seq":2,"t_us":5,"kind":"req.drop"}`},
		bad:  `{"t_us":0,"kind":"zorp"}`,
		scan: func(r io.Reader, comment func(string), fn func() error) error {
			return ScanEvents(r, comment, func(Event) error { return fn() })
		},
	},
	{
		name: "spans",
		recs: [2]string{
			`{"req":1,"id":1,"kind":"request","start_us":0,"end_us":1,"ttft_s":-1}`,
			`{"req":1,"id":2,"parent":1,"kind":"queue","start_us":0,"end_us":1}`,
		},
		bad: `{"req":1,"id":1,"kind":"zorp","start_us":0,"end_us":1}`,
		scan: func(r io.Reader, comment func(string), fn func() error) error {
			return ScanSpans(r, comment, func(Span) error { return fn() })
		},
	},
	{
		name: "decisions",
		head: []string{fmt.Sprintf(`{"schema":%q}`, DecisionSchema)},
		recs: [2]string{
			`{"seq":1,"t_us":0,"kind":"tick","true_util":0.5,"lp_mhz":0,"hp_mhz":0}`,
			`{"seq":2,"t_us":1000,"kind":"route","req":9,"pri":1,"chosen":0,"eps":[[0,1,0.5,0]]}`,
		},
		bad: `{"seq":1,"t_us":0,"kind":"zorp"}`,
		scan: func(r io.Reader, comment func(string), fn func() error) error {
			_, err := ScanDecisions(r, comment, func(Decision, []RouteCandidate) error { return fn() })
			return err
		},
	},
}

// TestScanContract pins the line-scanning contract ScanEvents, ScanSpans
// and ScanDecisions share: blank lines are skipped, `#` lines reach the
// comment callback in order, and every failure — malformed or truncated
// JSON, an unknown kind, a line over the cap, a callback error — names the
// stream and the 1-based line. Lines up to the cap (here 2 MiB, beyond
// bufio's default) parse.
func TestScanContract(t *testing.T) {
	errStop := errors.New("stop here")
	over := strings.Repeat("y", scanMaxLine+1)
	for _, st := range scanStreams {
		h := len(st.head)
		cases := []struct {
			name     string
			lines    []string
			stopAt   int      // the callback fails on this record (1-based); 0 = never
			wantRecs int      // records delivered to the callback
			comments []string // comment lines delivered, in order
			errLine  int      // 1-based line the error names; 0 = no error
			errText  string   // further text the error must carry
			tooLong  bool     // the error must wrap bufio.ErrTooLong
		}{
			{name: "blank lines skipped",
				lines:    append(append([]string{""}, st.head...), "", "   ", st.recs[0], "", st.recs[1], ""),
				wantRecs: 2},
			{name: "comments in order",
				lines:    append(append([]string{"# one"}, st.head...), "# two", st.recs[0], "  # three", st.recs[1]),
				wantRecs: 2, comments: []string{"# one", "# two", "# three"}},
			{name: "malformed json",
				lines:    append(append([]string{}, st.head...), st.recs[0], "{not json}"),
				wantRecs: 1, errLine: h + 2},
			{name: "truncated line",
				lines:    append(append([]string{}, st.head...), st.recs[0], st.recs[1][:len(st.recs[1])/2]),
				wantRecs: 1, errLine: h + 2},
			{name: "unknown kind",
				lines:   append(append([]string{}, st.head...), st.bad),
				errLine: h + 1, errText: `unknown kind "zorp"`},
			{name: "long line under cap",
				lines:    append(append([]string{}, st.head...), st.recs[0]+strings.Repeat(" ", 2<<20)),
				wantRecs: 1},
			{name: "over-cap line",
				lines:    append(append([]string{}, st.head...), st.recs[0], over),
				wantRecs: 1, errLine: h + 2, errText: "longer than", tooLong: true},
			{name: "callback error",
				lines:  append(append([]string{}, st.head...), st.recs[0], st.recs[1]),
				stopAt: 2, wantRecs: 2, errLine: h + 2, errText: "stop here"},
		}
		for _, tc := range cases {
			t.Run(st.name+"/"+tc.name, func(t *testing.T) {
				var comments []string
				recs := 0
				// One reader per line keeps the over-cap case to one copy of
				// its 64 MiB line.
				var input []io.Reader
				for _, l := range tc.lines {
					input = append(input, strings.NewReader(l), strings.NewReader("\n"))
				}
				err := st.scan(io.MultiReader(input...),
					func(l string) { comments = append(comments, l) },
					func() error {
						recs++
						if recs == tc.stopAt {
							return errStop
						}
						return nil
					})
				if recs != tc.wantRecs {
					t.Errorf("delivered %d records, want %d", recs, tc.wantRecs)
				}
				if !reflect.DeepEqual(comments, tc.comments) {
					t.Errorf("comments = %q, want %q", comments, tc.comments)
				}
				if tc.errLine == 0 {
					if err != nil {
						t.Fatalf("unexpected error: %v", err)
					}
					return
				}
				marker := fmt.Sprintf("%s line %d: ", st.name, tc.errLine)
				if err == nil || !strings.HasPrefix(err.Error(), marker) || !strings.Contains(err.Error(), tc.errText) {
					t.Fatalf("err = %v, want %q ... %q", err, marker, tc.errText)
				}
				if tc.tooLong && !errors.Is(err, bufio.ErrTooLong) {
					t.Errorf("err = %v, want bufio.ErrTooLong", err)
				}
				if tc.stopAt != 0 && !errors.Is(err, errStop) {
					t.Errorf("err = %v, want the callback's error wrapped", err)
				}
			})
		}
	}
}
