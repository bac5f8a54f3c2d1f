package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadSummaryFromLiveRun(t *testing.T) {
	res, events, _ := runTraced(t, 16)

	// Serialize the parsed events back to JSONL and summarize; this keeps
	// the summary input byte-identical in shape to what Recorder wrote.
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for _, e := range events {
		rec.record(e)
	}

	s, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Proposals != res.Proposals {
		t.Errorf("summary proposals %d, engine %d", s.Proposals, res.Proposals)
	}
	if s.Connections != res.Connections {
		t.Errorf("summary connections %d, engine %d", s.Connections, res.Connections)
	}
	if s.Tokens != res.TokensMoved {
		t.Errorf("summary tokens %d, engine %d", s.Tokens, res.TokensMoved)
	}
	if int64(len(events)) != s.Proposals+s.Connections {
		t.Errorf("event count %d != proposals+connections %d", len(events), s.Proposals+s.Connections)
	}

	// Per-round stats must be ascending and sum to the totals.
	var p, c int64
	last := 0
	for _, rs := range s.Rounds {
		if rs.Round <= last {
			t.Fatalf("rounds not strictly ascending at %d", rs.Round)
		}
		last = rs.Round
		p += int64(rs.Proposals)
		c += int64(rs.Connections)
	}
	if p != s.Proposals || c != s.Connections {
		t.Errorf("per-round sums (%d, %d) != totals (%d, %d)", p, c, s.Proposals, s.Connections)
	}

	if rate := s.AcceptanceRate(); rate <= 0 || rate > 1 {
		t.Errorf("acceptance rate %v outside (0, 1]", rate)
	}
}

func TestReadSummaryRejectsGarbage(t *testing.T) {
	if _, err := ReadSummary(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage line should fail")
	}
	if _, err := ReadSummary(strings.NewReader(`{"round":1,"kind":"mystery","node":0,"peer":1}` + "\n")); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestReadSummaryEmptyAndBlankLines(t *testing.T) {
	s, err := ReadSummary(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rounds) != 0 || s.Proposals != 0 || s.Connections != 0 {
		t.Errorf("empty trace should produce empty summary, got %+v", s)
	}
	if s.AcceptanceRate() != 0 {
		t.Errorf("acceptance rate of empty trace should be 0")
	}

	s, err = ReadSummary(strings.NewReader("\n\n" + `{"round":2,"kind":"propose","node":0,"peer":1}` + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Proposals != 1 || len(s.Rounds) != 1 || s.Rounds[0].Round != 2 {
		t.Errorf("blank lines should be skipped, got %+v", s)
	}
}
