package cluster

import (
	"fmt"
	"testing"

	"mapdr/internal/wire"
)

// ringOwner is the member owning id: the head of its preference list,
// or "" on an empty ring.
func ringOwner(r *Ring, id string) string { return r.ownerAt(wire.KeyHash(id)) }

func ringIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("car-%05d", i)
	}
	return ids
}

func TestRingBalance(t *testing.T) {
	r, err := NewRing(0, "a", "b", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, id := range ringIDs(20000) {
		counts[ringOwner(r, id)]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d of 4 members own keys: %v", len(counts), counts)
	}
	for name, n := range counts {
		// With 64 vnodes per member the shares should be within a factor
		// of ~2 of fair; a violation signals a broken ring hash (e.g.
		// sequential ids clumping).
		if n < 2500 || n > 10000 {
			t.Errorf("member %s owns %d of 20000 keys — unbalanced ring: %v", name, n, counts)
		}
	}
}

func TestRingOwnerDeterministic(t *testing.T) {
	r1, _ := NewRing(16, "x", "y", "z")
	r2, _ := NewRing(16, "z", "y", "x") // construction order must not matter
	for _, id := range ringIDs(500) {
		if ringOwner(r1, id) != ringOwner(r2, id) {
			t.Fatalf("owner of %q depends on construction order", id)
		}
	}
}

// TestRingAddMovements proves the movement list is exactly the
// ownership diff: every key whose owner changed is covered by a
// movement with the right From/To, and every key inside a movement
// range actually moved that way.
func TestRingAddMovements(t *testing.T) {
	r, _ := NewRing(32, "a", "b", "c")
	ids := ringIDs(20000)
	before := make(map[string]string, len(ids))
	for _, id := range ids {
		before[id] = ringOwner(r, id)
	}
	movs, err := r.Add("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(movs) == 0 {
		t.Fatal("adding a member to a populated ring must move keys")
	}
	for _, mov := range movs {
		if mov.To != "d" {
			t.Fatalf("movement to %q, want new member d", mov.To)
		}
		if mov.From == "d" || mov.From == "" {
			t.Fatalf("movement from %q", mov.From)
		}
	}
	moved := 0
	for _, id := range ids {
		after := ringOwner(r, id)
		h := wire.KeyHash(id)
		var mov *Movement
		for i := range movs {
			if wire.InKeyRange(h, movs[i].Lo, movs[i].Hi) {
				mov = &movs[i]
				break
			}
		}
		switch {
		case mov == nil:
			if after != before[id] {
				t.Fatalf("%s changed owner %s->%s outside any movement", id, before[id], after)
			}
		default:
			moved++
			if before[id] != mov.From || after != mov.To {
				t.Fatalf("%s: movement says %s->%s, owners were %s->%s",
					id, mov.From, mov.To, before[id], after)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no sampled key moved — movement ranges empty?")
	}
	// Consistent hashing: roughly 1/4 of keys should move to the new
	// member, never the majority.
	if moved > len(ids)/2 {
		t.Errorf("%d of %d keys moved on one join — too much churn", moved, len(ids))
	}
}

func TestRingRemoveMovements(t *testing.T) {
	r, _ := NewRing(32, "a", "b", "c", "d")
	ids := ringIDs(20000)
	before := make(map[string]string, len(ids))
	for _, id := range ids {
		before[id] = ringOwner(r, id)
	}
	movs, err := r.Remove("b")
	if err != nil {
		t.Fatal(err)
	}
	for _, mov := range movs {
		if mov.From != "b" || mov.To == "b" || mov.To == "" {
			t.Fatalf("bad movement %+v", mov)
		}
	}
	for _, id := range ids {
		after := ringOwner(r, id)
		if after == "b" {
			t.Fatalf("%s still owned by removed member", id)
		}
		if before[id] != "b" {
			if after != before[id] {
				t.Fatalf("%s changed owner %s->%s though b never owned it", id, before[id], after)
			}
			continue
		}
		h := wire.KeyHash(id)
		found := false
		for _, mov := range movs {
			if wire.InKeyRange(h, mov.Lo, mov.Hi) {
				if after != mov.To {
					t.Fatalf("%s: movement says ->%s, owner is %s", id, mov.To, after)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s left b but is covered by no movement", id)
		}
	}
}

// TestRingOwnersPreferenceList checks the replication read of the
// ring: R distinct physical members per key, the primary first, vnode
// collisions skipped, capped by the member count.
func TestRingOwnersPreferenceList(t *testing.T) {
	r, _ := NewRing(32, "a", "b", "c", "d")
	for _, id := range ringIDs(2000) {
		owners := r.Owners(id, 3)
		if len(owners) != 3 {
			t.Fatalf("%s: owners %v, want 3", id, owners)
		}
		if owners[0] != ringOwner(r, id) {
			t.Fatalf("%s: primary %s != Owner %s", id, owners[0], ringOwner(r, id))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("%s: duplicate member in preference list %v", id, owners)
			}
			seen[o] = true
		}
	}
	// Over-asking returns every member exactly once.
	if owners := r.Owners("anything", 10); len(owners) != 4 {
		t.Fatalf("over-asked owners %v, want all 4 members", owners)
	}
	// The preference list shifts by at most one position when a member
	// leaves: survivors keep their replicas (that is what makes handoff
	// incremental).
	before := map[string][]string{}
	ids := ringIDs(2000)
	for _, id := range ids {
		before[id] = r.Owners(id, 2)
	}
	if _, err := r.Remove("d"); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		after := r.Owners(id, 2)
		for _, o := range before[id] {
			if o == "d" {
				continue
			}
			found := false
			for _, now := range after {
				if now == o {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: surviving replica %s evicted by removal (%v -> %v)", id, o, before[id], after)
			}
		}
	}
}

// TestRingWeightedOwnershipDiff is the weighted-vnode ownership-diff
// proof: quadrupling one member's vnode count grows its key share
// roughly proportionally, and every key that changes owner moves TO
// that member — nothing shuffles between the unweighted members.
func TestRingWeightedOwnershipDiff(t *testing.T) {
	ids := ringIDs(20000)
	uniform, _ := NewRing(32, "a", "b", "c", "d")
	weighted, err := NewWeightedRing(32, map[string]int{"d": 128}, "a", "b", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	moved := 0
	for _, id := range ids {
		was, now := ringOwner(uniform, id), ringOwner(weighted, id)
		counts[now]++
		if was == now {
			continue
		}
		moved++
		if now != "d" {
			t.Fatalf("%s moved %s->%s though only d was upweighted", id, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("no key moved to the upweighted member")
	}
	// d carries 128 of 224 vnodes: its share should be roughly 4x an
	// unweighted member's, far above the uniform quarter.
	if counts["d"] < len(ids)/3 {
		t.Fatalf("upweighted member owns %d of %d keys — weight had no effect: %v", counts["d"], len(ids), counts)
	}
	for _, name := range []string{"a", "b", "c"} {
		if counts[name] >= counts["d"] {
			t.Fatalf("unweighted %s owns more than the 4x-weighted d: %v", name, counts)
		}
	}
	// AddWeighted produces the same ownership as constructing the ring
	// with that weight, and its movement list is exactly the diff.
	grown, _ := NewRing(32, "a", "b", "c")
	before := map[string]string{}
	for _, id := range ids {
		before[id] = ringOwner(grown, id)
	}
	movs, err := grown.AddWeighted("d", 128)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Vnodes("d") != 128 {
		t.Fatalf("joined member carries %d vnodes, want 128", grown.Vnodes("d"))
	}
	for _, id := range ids {
		after := ringOwner(grown, id)
		h := wire.KeyHash(id)
		inMove := false
		for i := range movs {
			if wire.InKeyRange(h, movs[i].Lo, movs[i].Hi) {
				inMove = true
				break
			}
		}
		if inMove && after != "d" {
			t.Fatalf("%s inside a movement but owned by %s", id, after)
		}
		if !inMove && after != before[id] {
			t.Fatalf("%s changed owner %s->%s outside any movement", id, before[id], after)
		}
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(8, "a", "a"); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewRing(8, ""); err == nil {
		t.Error("empty member name accepted")
	}
	r, _ := NewRing(8, "a")
	if _, err := r.Add("a"); err == nil {
		t.Error("duplicate Add accepted")
	}
	if _, err := r.Remove("ghost"); err == nil {
		t.Error("removing unknown member accepted")
	}
	if movs, err := r.Add("b"); err != nil || len(movs) == 0 {
		t.Errorf("Add(b) = %v, %v", movs, err)
	}
	if owner := ringOwner(r, "anything"); owner != "a" && owner != "b" {
		t.Errorf("owner %q", owner)
	}
	// Removing down to one member keeps everything owned.
	if _, err := r.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if owner := ringOwner(r, "anything"); owner != "b" {
		t.Errorf("owner after removal %q, want b", owner)
	}
	// Removing the last member empties the ring without movements.
	movs, err := r.Remove("b")
	if err != nil || movs != nil {
		t.Errorf("last removal: %v, %v", movs, err)
	}
	if owner := ringOwner(r, "anything"); owner != "" {
		t.Errorf("empty ring owner %q", owner)
	}
}
