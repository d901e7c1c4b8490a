package campaign

import "testing"

func TestStateTransitions(t *testing.T) {
	allowed := []struct{ from, to State }{
		{StateQueued, StateRunning},
		{StateQueued, StateCanceled},
		{StateRunning, StateCheckpointing},
		{StateRunning, StateFailed},
		{StateRunning, StateCanceled},
		{StateCheckpointing, StateDone},
		{StateCheckpointing, StateDegraded},
		{StateCheckpointing, StateFailed},
		{StateCheckpointing, StateCanceled},
		{StateCheckpointing, StateQueued}, // suspend back to the queue
	}
	for _, tr := range allowed {
		if !canTransition(tr.from, tr.to) {
			t.Errorf("transition %s -> %s should be allowed", tr.from, tr.to)
		}
	}
	denied := []struct{ from, to State }{
		{StateQueued, StateDone},
		{StateQueued, StateCheckpointing},
		{StateRunning, StateDone},     // must pass through checkpointing
		{StateRunning, StateDegraded}, // ditto
		{StateRunning, StateQueued},   // ditto
		{StateDone, StateRunning},
		{StateFailed, StateQueued},
		{StateCanceled, StateRunning},
		{StateDegraded, StateQueued},
	}
	for _, tr := range denied {
		if canTransition(tr.from, tr.to) {
			t.Errorf("transition %s -> %s should be rejected", tr.from, tr.to)
		}
	}
}

func TestStateTerminal(t *testing.T) {
	for st, terminal := range map[State]bool{
		StateQueued: false, StateRunning: false, StateCheckpointing: false,
		StateDone: true, StateDegraded: true, StateFailed: true, StateCanceled: true,
	} {
		if st.Terminal() != terminal {
			t.Errorf("%s.Terminal() = %v, want %v", st, st.Terminal(), terminal)
		}
	}
}

func TestJobTransitionRejectsInvalid(t *testing.T) {
	j := &Job{ID: "job-000001", State: StateQueued}
	if err := j.transition(StateDone); err == nil {
		t.Fatal("queued -> done should error")
	}
	if j.State != StateQueued {
		t.Fatalf("failed transition mutated state to %s", j.State)
	}
	if err := j.transition(StateRunning); err != nil {
		t.Fatalf("queued -> running: %v", err)
	}
	if j.State != StateRunning {
		t.Fatalf("state = %s, want running", j.State)
	}
}
