package train

import "testing"

// FuzzParseMembershipPlan: a membership plan comes from a flag or a
// Config. Any string parses or errors, never panics, and an accepted plan
// keeps the grammar's promises: events in step order, rank 0 never leaves,
// and a rank joins only after it left.
func FuzzParseMembershipPlan(f *testing.F) {
	for _, s := range []string{"", "leave=2@10; join=2@20; quorum=2; procs=4", "leave=1@5", "join=1@3", "leave=0@1",
		"leave=1@5;leave=1@6", "quorum=0", "procs=1", "leave=1@-1", "leave=x@1", "leave=1", ";", "bogus=1",
		"join=3@9; leave=3@2", "leave=9223372036854775807@9223372036854775807"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseMembershipPlan(s)
		if err != nil || p == nil {
			return
		}
		down := map[int]bool{}
		for i, ev := range p.Events {
			if i > 0 && ev.Step < p.Events[i-1].Step {
				t.Fatalf("ParseMembershipPlan(%q): events out of step order: %+v", s, p.Events)
			}
			if ev.Rank <= 0 || ev.Step < 0 || ev.Join != down[ev.Rank] {
				t.Fatalf("ParseMembershipPlan(%q) accepted event %+v in %+v", s, ev, p.Events)
			}
			down[ev.Rank] = !ev.Join
		}
	})
}
