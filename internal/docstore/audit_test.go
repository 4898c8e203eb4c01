package docstore

import (
	"testing"

	"covidkg/internal/jsondoc"
)

func TestAuditWritesCleanRun(t *testing.T) {
	c := Open(WithShards(2)).Collection("pubs")
	var acked []string
	for i := 0; i < 10; i++ {
		id, err := c.Insert(jsondoc.Doc{"title": "doc"})
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, id)
	}
	rep := AuditWrites(c, acked, []string{"never-written-1", "never-written-2"})
	if !rep.Clean() {
		t.Fatalf("clean run audit = %+v", rep)
	}
	if rep.Acked != 10 || rep.Rejected != 2 {
		t.Fatalf("accounting = %+v", rep)
	}
}

func TestAuditWritesFlagsLostAndGhost(t *testing.T) {
	c := Open(WithShards(2)).Collection("pubs")
	id, err := c.Insert(jsondoc.Doc{"_id": "present", "title": "doc"})
	if err != nil {
		t.Fatal(err)
	}
	rep := AuditWrites(c,
		[]string{id, "vanished-a", "vanished-b"}, // two acked ids never stored
		[]string{id},                             // a "rejected" id that exists → ghost
	)
	if rep.Lost != 2 {
		t.Fatalf("lost = %d, want 2", rep.Lost)
	}
	if rep.Ghost != 1 {
		t.Fatalf("ghost = %d, want 1", rep.Ghost)
	}
	if len(rep.LostIDs) != 2 || rep.LostIDs[0] != "vanished-a" {
		t.Fatalf("lost ids = %v", rep.LostIDs)
	}
	if len(rep.GhostIDs) != 1 || rep.GhostIDs[0] != id {
		t.Fatalf("ghost ids = %v", rep.GhostIDs)
	}
	if rep.Clean() {
		t.Fatal("violating audit reported clean")
	}
}
