package chaos

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseRejectsBadLines is the table-driven parser contract: every
// malformed line is rejected with an error naming its line number.
func TestParseRejectsBadLines(t *testing.T) {
	cases := []struct {
		name, text, wantLine, wantMsg string
	}{
		{"unknown kind", "1 crash 2\n3 explode 4", "line 2", "unknown event kind"},
		{"bad time", "x crash 1", "line 1", "virtual time"},
		{"missing kind", "7", "line 1", "missing event kind"},
		{"missing node", "1 crash", "line 1", "crash wants"},
		{"trailing junk", "1 crash 2 3", "line 1", "crash wants"},
		{"heal with args", "1 heal now", "line 1", "takes no arguments"},
		{"coord-crash with args", "1 coord-crash 2", "line 1", "takes no arguments"},
		{"nn-crash missing member", "1 nn-crash", "line 1", "nn-crash wants"},
		{"nn-crash wildcard", "1 nn-crash *", "line 1", "bad member"},
		{"nn-revive bad member", "1 nn-revive boss", "line 1", "bad member"},
		{"corrupt-block missing node", "2 corrupt-block", "line 1", "corrupt-block wants"},
		{"slow missing duration", "1 slow 1", "line 1", "slow wants"},
		{"slow bad duration", "1 slow 1 fast", "line 1", "bad duration"},
		{"drop is gone", "1 drop 0.5", "line 1", "unknown event kind"},
		{"flaky negative", "1 flaky 1 -0.5", "line 1", "bad value"},
		{"flaky above one", "1 flaky 1 1.5", "line 1", "bad value"},
		{"flaky NaN", "1 flaky 1 NaN", "line 1", "bad value"},
		{"flap NaN", "1 flap 0 1 NaN", "line 1", "bad value"},
		{"burst infinite", "1 burst +Inf", "line 1", "bad value"},
		{"partition one group", "1 partition 0-3", "line 1", "at least two groups"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.text)
			if err == nil {
				t.Fatalf("Parse(%q) accepted", tc.text)
			}
			for _, want := range []string{tc.wantLine, tc.wantMsg} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

func TestControlPlaneEventKinds(t *testing.T) {
	text := "2 nn-crash leader\n3 corrupt-block 4\n5 coord-crash\n7 nn-revive leader\n8 nn-crash 1\n"
	sched, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trippable, including the "leader" token.
	s2, err := Parse(sched.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !reflect.DeepEqual(sched, s2) {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", sched, s2)
	}
	f := &fakeTargets{}
	c := New(sched, 1, Targets{Namenode: f, Engine: f, Storage: f}, nil)
	c.AdvanceTo(10)
	want := []string{
		"nn-crash", "-1", // leader resolves to -1 for ha.Group
		"corrupt-block", "4",
		"coord-crash",
		"nn-revive", "-1", // revive "leader" = most recently crashed
		"nn-crash", "1",
	}
	if !reflect.DeepEqual(f.log, want) {
		t.Fatalf("log = %v, want %v", f.log, want)
	}
	// Absent targets skip the events without panicking.
	New(sched, 1, Targets{}, nil).AdvanceTo(10)
}

func TestHAPresets(t *testing.T) {
	for _, name := range []string{"nn-crash", "coord-crash", "ha"} {
		s, err := Preset(name, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		if _, err := Parse(s.String()); err != nil {
			t.Fatalf("%s round trip: %v", name, err)
		}
		for _, compute := range PresetNames() {
			if compute == name {
				t.Fatalf("%s preset leaked into the compute preset sweep", name)
			}
		}
	}
	// The ha preset pairs its nn-crash with an nn-revive so the group is
	// back to full strength after the schedule.
	s, _ := Preset("ha", 8)
	var crashes, revives int
	for _, e := range s {
		switch e.Kind {
		case NNCrash:
			crashes++
		case NNRevive:
			revives++
		}
	}
	if crashes == 0 || crashes != revives {
		t.Fatalf("ha preset nn-crash/nn-revive unpaired: %d vs %d", crashes, revives)
	}
}
