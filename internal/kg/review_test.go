package kg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestReviewOrderMatchesReference: a queue of queued fusions, approved
// and rejected in random order — ids twice, ids never issued, targets
// the expert picked over the suggestion — leaves the fuser's queue,
// graph and learned corrections exactly where the reference's walk of
// its whole queue leaves them, after every decision.
func TestReviewOrderMatchesReference(t *testing.T) {
	words := []string{"vaccine", "fever", "rash", "dose", "mRNA", "booster", "cough",
		"variant", "antibody", "Pfizer", "Moderna", "Symptoms", "Vaccines", "Treatment"}
	for seq := 0; seq < 20; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		embed := quantEmbed(uint32(seq % 3))
		p := &fusePair{t: t, g: SeedCOVID(embed), rg: SeedCOVID(embed)}
		p.f, p.rf = NewFuser(p.g), newRefFuser(p.rg)
		for i := 0; i < 10; i++ {
			p.labels = append(p.labels, fmt.Sprintf("%s %s", words[rng.Intn(len(words))], words[rng.Intn(len(words))]))
		}
		p.labels = append(p.labels, words...)
		for i := 0; i < 60; i++ {
			sub := p.subtree(rng)
			if i%2 == 0 { // multi-layer: always queued
				label := func() string { return p.labels[rng.Intn(len(p.labels))] }
				sub = &Subtree{Label: label(), Children: []*Subtree{NewSubtree(label(), label())}, Papers: []string{"p1"}}
			}
			if got, want := p.f.Fuse(sub), p.rf.Fuse(sub); got.ReviewID != want.ReviewID {
				t.Fatalf("seq %d: Fuse(%q) queued as %d, reference %d", seq, sub.Label, got.ReviewID, want.ReviewID)
			}
		}
		queued := p.rf.nextRev
		if queued < 10 {
			t.Fatalf("seq %d: only %d fusions queued", seq, queued)
		}
		p.check(fmt.Sprintf("seq %d queued", seq))
		order := rng.Perm(queued + 3) // three ids never issued
		order = append(order, order[:queued/4]...)
		for step, k := range order {
			id := k + 1
			name := fmt.Sprintf("seq %d step %d (review %d)", seq, step, id)
			if rng.Intn(3) == 0 {
				if !sameErr(p.f.Reject(id), p.rf.Reject(id)) {
					t.Fatalf("%s: Reject disagrees", name)
				}
			} else {
				target := p.rg.RootID()
				if ids := p.rg.FindByNorm(p.labels[rng.Intn(len(p.labels))]); len(ids) > 0 {
					target = ids[0]
				}
				if !sameErr(p.f.Approve(id, target), p.rf.Approve(id, target)) {
					t.Fatalf("%s: Approve(%s) disagrees", name, target)
				}
			}
			p.check(name)
		}
		if len(p.f.Pending()) != 0 {
			t.Fatalf("seq %d: %d items still pending after every id was decided", seq, len(p.f.Pending()))
		}
		if !reflect.DeepEqual(p.f.learned, p.rf.learned) {
			t.Fatalf("seq %d: learned corrections\n got  %v\n want %v", seq, p.f.learned, p.rf.learned)
		}
	}
}
