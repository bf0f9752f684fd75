package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mapdr/internal/wire"
)

// ringOwner is the member owning id: the first vnode at or after its
// hash, wrapping to the lowest; "" on an empty ring.
func ringOwner(r *Ring, id string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := wire.KeyHash(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	return r.points[i%len(r.points)].node
}

// planOn derives the plan of rec against a fresh routing table over
// names, replicating to rf members on rings of vnodes vnodes each.
func planOn(t *testing.T, vnodes, rf int, names []string, rec wire.LogRecord) *migrationPlan {
	t.Helper()
	members := make([]*Member, len(names))
	for i, name := range names {
		members[i] = tableMember(name)
	}
	tbl, err := newRoutingTable(vnodes, rf, members...)
	if err != nil {
		t.Fatal(err)
	}
	var joining *Member
	if rec.MigKind == migKindJoin {
		joining = tableMember(rec.Target)
	}
	p, err := tbl.plan(rec, joining)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkPlanMoves proves a plan's moves are exactly its owner-set diff
// over the sampled ids: an id whose R-owner set changes from p.from to
// p.next lies in exactly one move, whose adds and drops are the set
// differences and whose sources are the previous owners; every other
// id keeps its owners and lies in no move. It returns how many ids
// changed owners.
func checkPlanMoves(t *testing.T, p *migrationPlan, rf int, ids []string) (moved int) {
	t.Helper()
	for _, id := range ids {
		was, now := p.from.Owners(id, rf), p.next.Owners(id, rf)
		h := wire.KeyHash(id)
		var in []arcMove
		for _, mv := range p.moves {
			if wire.InKeyRange(h, mv.lo, mv.hi) {
				in = append(in, mv)
			}
		}
		var adds, drops []string // the set differences, in list order
		for _, name := range now {
			if !slices.Contains(was, name) {
				adds = append(adds, name)
			}
		}
		for _, name := range was {
			if !slices.Contains(now, name) {
				drops = append(drops, name)
			}
		}
		if len(adds) == 0 && len(drops) == 0 {
			if len(in) != 0 {
				t.Fatalf("%s keeps owners %v but lies in %d moves", id, was, len(in))
			}
			continue
		}
		if len(in) != 1 {
			t.Fatalf("%s: owners %v -> %v, but it lies in %d moves", id, was, now, len(in))
		}
		moved++
		mv := in[0]
		if !reflect.DeepEqual(mv.adds, adds) || !reflect.DeepEqual(mv.drops, drops) || !reflect.DeepEqual(mv.sources, was) {
			t.Fatalf("%s: owners %v -> %v, move says sources %v adds %v drops %v", id, was, now, mv.sources, mv.adds, mv.drops)
		}
	}
	return moved
}

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

// TestRingAddMovements proves a join's plan is exactly the ownership
// diff at R = 1 and 2, and that consistent hashing bounds the churn:
// every primary that changes moves to the joiner, and fewer than half
// the keys move.
func TestRingAddMovements(t *testing.T) {
	ids := ringIDs(20000)
	for _, rf := range []int{1, 2} {
		p := planOn(t, 32, rf, []string{"a", "b", "c"}, beginRecord(migKindJoin, "d", "mem://d", nil))
		if len(p.moves) == 0 {
			t.Fatal("adding a member to a populated ring must move keys")
		}
		for _, mv := range p.moves {
			if !reflect.DeepEqual(mv.adds, []string{"d"}) || containsName(mv.drops, "d") {
				t.Fatalf("R=%d: join move adds %v drops %v, want adds [d]", rf, mv.adds, mv.drops)
			}
		}
		moved := checkPlanMoves(t, p, rf, ids)
		if moved == 0 {
			t.Fatalf("R=%d: no sampled key moved — move ranges empty?", rf)
		}
		if rf > 1 {
			continue
		}
		for _, id := range ids {
			if was, now := ringOwner(p.from, id), ringOwner(p.next, id); was != now && now != "d" {
				t.Fatalf("%s moved %s->%s on a join of d", id, was, now)
			}
		}
		// Consistent hashing: roughly 1/4 of keys should move to the new
		// member, never the majority.
		if moved > len(ids)/2 {
			t.Errorf("%d of %d keys moved on one join — too much churn", moved, len(ids))
		}
	}
}

// TestRingRemoveMovements proves a leave's plan is exactly the
// ownership diff at R = 1 and 2, and that only the leaver's keys move.
func TestRingRemoveMovements(t *testing.T) {
	ids := ringIDs(20000)
	for _, rf := range []int{1, 2} {
		p := planOn(t, 32, rf, []string{"a", "b", "c", "d"}, beginRecord(migKindLeave, "b", "", nil))
		for _, mv := range p.moves {
			if !reflect.DeepEqual(mv.drops, []string{"b"}) || len(mv.adds) == 0 || containsName(mv.adds, "b") {
				t.Fatalf("R=%d: bad leave move adds %v drops %v", rf, mv.adds, mv.drops)
			}
		}
		if checkPlanMoves(t, p, rf, ids) == 0 {
			t.Fatalf("R=%d: no sampled key moved off the leaver", rf)
		}
		if rf > 1 {
			continue
		}
		for _, id := range ids {
			was, now := ringOwner(p.from, id), ringOwner(p.next, id)
			if now == "b" {
				t.Fatalf("%s still owned by removed member", id)
			}
			if was != "b" && now != was {
				t.Fatalf("%s changed owner %s->%s though b never owned it", id, was, now)
			}
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
	ids := ringIDs(2000)
	shrunk, _ := NewRing(32, "a", "b", "c")
	for _, id := range ids {
		before, after := r.Owners(id, 2), shrunk.Owners(id, 2)
		for _, o := range before {
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
				t.Fatalf("%s: surviving replica %s evicted by removal (%v -> %v)", id, o, before, after)
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
	// A reweight plan onto that weight leads to the same ownership as
	// constructing the ring with it, and its moves are exactly the diff.
	p := planOn(t, 32, 1, []string{"a", "b", "c", "d"}, beginRecord(migKindReweight, "", "", map[string]int{"d": 128}))
	if p.next.Vnodes("d") != 128 {
		t.Fatalf("reweighted member carries %d vnodes, want 128", p.next.Vnodes("d"))
	}
	for _, id := range ids {
		if got, want := ringOwner(p.next, id), ringOwner(weighted, id); got != want {
			t.Fatalf("%s: reweight plan owner %s, weighted ring owner %s", id, got, want)
		}
	}
	for _, mv := range p.moves {
		if !reflect.DeepEqual(mv.adds, []string{"d"}) {
			t.Fatalf("upweighting d moves a range to %v", mv.adds)
		}
	}
	if checkPlanMoves(t, p, 1, ids) != moved {
		t.Fatalf("the reweight plan moves other keys than the weighted ring does")
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(8, "a", "a"); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewRing(8, ""); err == nil {
		t.Error("empty member name accepted")
	}
	tbl, _ := newRoutingTable(8, 1, tableMember("a"))
	for _, bad := range []struct {
		rec     wire.LogRecord
		joining *Member
	}{
		{beginRecord(migKindJoin, "a", "mem://a", nil), tableMember("a")},
		{beginRecord(migKindJoin, "", "mem://", nil), tableMember("")},
		{beginRecord(migKindLeave, "ghost", "", nil), nil},
		{beginRecord(migKindLeave, "a", "", nil), nil}, // the last member
		{beginRecord(migKindReweight, "", "", map[string]int{"ghost": 8}), nil},
		{beginRecord(migKindReweight, "", "", map[string]int{"a": 0}), nil},
	} {
		if _, err := tbl.plan(bad.rec, bad.joining); err == nil {
			t.Errorf("plan accepted %+v", bad.rec)
		}
	}
	p, err := tbl.plan(beginRecord(migKindJoin, "b", "mem://b", nil), tableMember("b"))
	if err != nil || len(p.moves) == 0 {
		t.Fatalf("join of b: %v, %v", p, err)
	}
	if owner := ringOwner(p.next, "anything"); owner != "a" && owner != "b" {
		t.Errorf("owner %q", owner)
	}
	// A one-member ring owns everything; an empty ring owns nothing.
	if one, _ := NewRing(8, "b"); ringOwner(one, "anything") != "b" {
		t.Errorf("one-member owner %q, want b", ringOwner(one, "anything"))
	}
	if empty, _ := NewRing(8); ringOwner(empty, "anything") != "" || len(empty.Owners("anything", 2)) != 0 {
		t.Errorf("empty ring owns %q", ringOwner(empty, "anything"))
	}
}
