package chaos

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestGrayKindsParseRoundTrip covers the directed-fault text forms.
func TestGrayKindsParseRoundTrip(t *testing.T) {
	text := `
4 link-cut 0-3 4
9 link-heal 0-3 4
5 partial-partition 0|2-4
6 flap 0 1-4 0.3
9 unflap 0 1-4
12 heal
`
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 6 {
		t.Fatalf("parsed %d events, want 6", len(s))
	}
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", s, s2)
	}
	if s[0].Kind != LinkCut || len(s[0].Group) != 2 || len(s[0].Group[0]) != 4 || len(s[0].Group[1]) != 1 {
		t.Fatalf("link-cut parsed wrong: %+v", s[0])
	}
	if s[3].Kind != Flap || s[3].Value != 0.3 {
		t.Fatalf("flap parsed wrong: %+v", s[3])
	}
}

func TestGrayParseErrors(t *testing.T) {
	for _, bad := range []string{
		"1 link-cut 0-3",            // missing dsts
		"1 link-cut 0-3 4 5",        // trailing junk
		"1 link-cut a 4",            // garbage srcs
		"1 flap 0 1-4",              // missing probability
		"1 flap 0 1-4 0",            // p must be > 0
		"1 flap 0 1-4 1.5",          // p must be <= 1
		"1 partial-partition 0-4",   // one group
		"1 unflap 0",                // missing dsts
		"1 link-heal 3- 4",          // bad range
		"1 partial-partition 0|b-c", // garbage group
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestGrayApplySequence pins the exact target calls each directed kind
// makes: link-cut/link-heal fan src x dst one way, partial-partition cuts
// pairwise in both directions, heal wipes everything.
func TestGrayApplySequence(t *testing.T) {
	sched, err := Parse("2 link-cut 0,1 2\n4 partial-partition 0|2\n6 link-heal 0,1 2\n8 heal\n")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeTargets{}
	c := New(sched, 1, targetsOf(f), nil)
	c.AdvanceTo(10)
	want := []string{
		"cut", "0>2", "cut", "1>2", // link-cut 0,1 -> 2
		"cut", "0>2", "cut", "2>0", // partial-partition 0|2: both ways
		"healink", "0>2", "healink", "1>2",
		"heal",
	}
	if !reflect.DeepEqual(f.log, want) {
		t.Fatalf("log = %v\nwant  %v", f.log, want)
	}
	if !c.Done() {
		t.Fatal("controller not done")
	}
}

// TestFlapDeterminismAndUnflap: a flap window toggles links with the
// seeded coin (same seed -> identical transition log), unflap heals
// whatever the coin left cut, and the toggle counter moves.
func TestFlapDeterminismAndUnflap(t *testing.T) {
	text := "1 flap 0 1,2 0.5\n30 unflap 0 1,2\n"
	run := func(seed uint64) ([]string, int64) {
		sched, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		f := &fakeTargets{}
		reg := metrics.NewRegistry()
		c := New(sched, seed, targetsOf(f), reg)
		c.AdvanceTo(40)
		return f.log, reg.Counter("chaos_flap_toggles").Value()
	}
	log1, tog1 := run(42)
	log2, tog2 := run(42)
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", log1, log2)
	}
	if tog1 != tog2 || tog1 == 0 {
		t.Fatalf("flap toggles = %d / %d, want equal and > 0", tog1, tog2)
	}
	// Net effect of the whole run: every flapped pair ends healed.
	state := map[string]bool{}
	for i := 0; i+1 < len(log1); i += 2 {
		switch log1[i] {
		case "cut":
			state[log1[i+1]] = true
		case "healink":
			state[log1[i+1]] = false
		}
	}
	for pair, cut := range state {
		if cut {
			t.Fatalf("pair %s still cut after unflap", pair)
		}
	}
}

// TestFlapTickStepping: with no flap active the controller jumps event to
// event; once a flap is armed it must advance tick by tick so the coin is
// rolled at every virtual instant (otherwise long AdvanceTo jumps would
// skip flapping entirely).
func TestFlapTickStepping(t *testing.T) {
	sched, err := Parse("5 flap 0 1 1\n")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeTargets{}
	c := New(sched, 7, targetsOf(f), nil)
	c.AdvanceTo(1000)
	if c.Now() != 1000 {
		t.Fatalf("vtime = %d, want 1000", c.Now())
	}
	// p=1: the link is cut on the first roll and never healed — exactly
	// one transition no matter how far time advanced.
	want := []string{"cut", "0>1"}
	if !reflect.DeepEqual(f.log, want) {
		t.Fatalf("log = %v, want %v", f.log, want)
	}
}

// TestGrayPreset: the gray preset parses, round-trips, ends with a total
// heal, and stays out of the compute-preset sweep.
func TestGrayPreset(t *testing.T) {
	s, err := Preset("gray", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(s.String()); err != nil {
		t.Fatalf("gray preset round trip: %v", err)
	}
	if s[len(s)-1].Kind != Heal {
		t.Fatalf("gray preset must end with heal, got %s", s[len(s)-1].Kind)
	}
	for _, name := range PresetNames() {
		if name == "gray" {
			t.Fatal("gray preset leaked into the compute preset sweep")
		}
	}
	// Replaying the preset against targets leaves every link healed: the
	// final heal is a real event, not decoration.
	f := &fakeTargets{}
	c := New(s, 3, targetsOf(f), nil)
	c.AdvanceTo(30)
	if !c.Done() {
		t.Fatal("gray preset did not finish by vtime 30")
	}
	if len(f.log) == 0 || f.log[len(f.log)-1] != "heal" {
		t.Fatalf("last target call = %v, want heal", f.log)
	}
}

// FuzzParseSchedule: anything Parse accepts must render back through
// String into a schedule Parse accepts again and that compares equal —
// the property every preset and experiment schedule relies on.
func FuzzParseSchedule(f *testing.F) {
	seeds := []string{
		"2 crash 3\n8 revive 3\n",
		"3 partition 0-3|4-7\n5 heal\n",
		"1 slow 1 40ms\n13 unslow 1\n",
		"7 flaky 2 0.8\n12 unflaky 2\n",
		"1 burst +Inf\n1 flaky 1 1.5\n",
		"9 degrade 5 4\n10 undegrade 5\n",
		"7 stream-crash 2\n9 stream-restore 2\n",
		"2 nn-crash leader\n9 nn-revive leader\n",
		"5 coord-crash\n3 corrupt-block 4\n",
		"2 burst 3\n10 unburst\n4 tenant-flood 0 5\n9 unflood 0\n",
		"2 txn-crash before-commit\n4 txn-recover\n",
		"4 link-cut 0-3 4\n9 link-heal 0-3 4\n",
		"5 partial-partition 0|2-4\n12 heal\n",
		"6 flap 0 1-4 0.3\n9 unflap 0 1-4\n",
		"1 crash *\n5 revive *\n",
		"# comment only\n\n",
		"x crash 1\n",
		"1 explode 2\n",
		"1 flap 0 1 2\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return // invalid input is fine; it just must not panic
		}
		rendered := s.String()
		s2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("String() output rejected: %v\ninput: %q\nrendered: %q", err, text, rendered)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip mismatch for %q:\n%#v\nvs\n%#v", text, s, s2)
		}
		// Rendering is also a fixed point: String(Parse(String(s))) == String(s).
		if r2 := s2.String(); r2 != rendered {
			t.Fatalf("String not a fixed point:\n%q\nvs\n%q", rendered, r2)
		}
		if strings.Count(rendered, "\n") != len(s) {
			t.Fatalf("rendered %d lines for %d events", strings.Count(rendered, "\n"), len(s))
		}
	})
}
