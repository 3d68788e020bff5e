package queue

import "testing"

// TestStatusStrings pins the Status names.
func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		StatusIdle:    "idle",
		StatusPending: "pending",
		StatusRunning: "running",
		Status(99):    "Status(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("Status(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
