package docstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"covidkg/internal/breaker"
	"covidkg/internal/failpoint"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// TestDarkShardScheduleMatchesModel runs seeded random schedules of
// writes, reads and shard outages against a map model that applies only
// the writes the store acknowledged. A dark shard must fail every
// operation with a ShardError naming it; a shard that has been back for
// a full breaker cooldown must agree with the model on every read; in
// between, an operation may fail, but a failed write must change
// nothing. After every outage is cleared and the cooldown has passed, a
// full scan must equal the model byte for byte.
func TestDarkShardScheduleMatchesModel(t *testing.T) {
	const (
		seeds    = 200
		ops      = 200
		shards   = 4
		keys     = 32
		cooldown = time.Second
	)
	for seed := int64(1); seed <= seeds; seed++ {
		runDarkShardSchedule(t, seed, ops, shards, keys, cooldown)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

func runDarkShardSchedule(t *testing.T, seed int64, ops, shards, keys int, cooldown time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	var clock atomic.Int64 // fake breaker clock, nanoseconds
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	fp := failpoint.New(seed)
	fp.SetSleeper(func(time.Duration) {})
	s := Open(WithShards(shards), WithFailpoints(fp), WithMetrics(metrics.NewRegistry()),
		WithBreaker(breaker.Config{Threshold: 2, Cooldown: cooldown, Now: now}))
	c := s.Collection("pubs")

	model := map[string]jsondoc.Doc{}
	dark := make([]bool, shards)
	healAt := make([]int64, shards) // fake time a cleared shard must serve again
	serving := func(si int) bool { return !dark[si] && clock.Load() >= healAt[si] }

	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	// checkShardErr vets a failed operation on shard si: it must name si,
	// and a shard that is serving must not fail at all.
	checkShardErr := func(op string, si int, err error, sentinel error) {
		t.Helper()
		if got, ok := ShardOfError(err); !ok || got != si || !errors.Is(err, sentinel) {
			fail("%s on shard %d: err %v, want a ShardError on it wrapping %v", op, si, err, sentinel)
		} else if serving(si) {
			fail("%s on serving shard %d failed: %v", op, si, err)
		}
	}
	// write vets one write's outcome on id's shard: a dark shard must
	// reject it, and only an acknowledged write reaches the model (apply).
	write := func(op, id string, err error, apply func()) {
		t.Helper()
		si := c.ShardOfID(id)
		switch {
		case err == nil:
			if dark[si] {
				fail("%s %s acknowledged on dark shard %d", op, id, si)
			}
			apply()
		case errors.Is(err, ErrNotFound) || errors.Is(err, ErrDuplicateID):
			if dark[si] {
				fail("%s %s on dark shard %d: %v", op, id, si, err)
			}
			_, exists := model[id]
			if exists != errors.Is(err, ErrDuplicateID) {
				fail("%s %s: %v, but model has it = %v", op, id, err, exists)
			}
		default:
			checkShardErr(op, si, err, ErrNoQuorum)
		}
	}
	wantExists := func(op, id string) bool {
		t.Helper()
		_, exists := model[id]
		if !exists {
			fail("%s %s succeeded but the model has no such document", op, id)
		}
		return exists
	}
	body := func(id string) jsondoc.Doc {
		return jsondoc.Doc{IDField: id, "v": float64(rng.Intn(1000)), "tag": fmt.Sprintf("t%d", rng.Intn(5))}
	}

	for op := 0; op < ops; op++ {
		id := fmt.Sprintf("k%02d", rng.Intn(keys))
		switch r := rng.Intn(100); {
		case r < 8: // darken a shard
			si := rng.Intn(shards)
			fp.Set(ShardTarget(si), failpoint.Rule{Down: true})
			dark[si] = true
		case r < 14: // bring a shard back
			si := rng.Intn(shards)
			if dark[si] {
				fp.Clear(ShardTarget(si))
				dark[si] = false
				healAt[si] = clock.Load() + int64(cooldown)
			}
		case r < 20: // time passes
			clock.Add(int64(rng.Intn(3)) * int64(cooldown) / 2)
		case r < 35:
			d := body(id)
			_, err := c.Insert(d)
			write("Insert", id, err, func() {
				if _, exists := model[id]; exists {
					fail("Insert %s acknowledged over an existing document", id)
				}
				model[id] = jsondoc.NormalizeDoc(d)
			})
		case r < 42:
			d := body(id)
			err := c.Replace(id, d)
			write("Replace", id, err, func() {
				if wantExists("Replace", id) {
					model[id] = jsondoc.NormalizeDoc(d)
				}
			})
		case r < 50:
			v := float64(rng.Intn(1000))
			err := c.Update(id, func(d jsondoc.Doc) error { return d.Set("v", v) })
			write("Update", id, err, func() {
				if wantExists("Update", id) {
					d := model[id].Clone()
					d["v"] = v
					model[id] = d
				}
			})
		case r < 56:
			err := c.Delete(id)
			write("Delete", id, err, func() {
				if wantExists("Delete", id) {
					delete(model, id)
				}
			})
		case r < 72:
			si := c.ShardOfID(id)
			got, err := c.Get(id)
			want, exists := model[id]
			switch {
			case err == nil:
				if dark[si] {
					fail("Get %s served by dark shard %d", id, si)
				} else if !exists || !bytes.Equal(got.JSON(), want.JSON()) {
					fail("Get %s = %s, model %s", id, got.JSON(), want.JSON())
				}
			case errors.Is(err, ErrNotFound):
				if dark[si] || exists {
					fail("Get %s = %v; dark %v, model has it %v", id, err, dark[si], exists)
				}
			default:
				checkShardErr("Get", si, err, ErrShardUnavailable)
			}
		case r < 80:
			ids := make([]string, 1+rng.Intn(8))
			for i := range ids {
				ids[i] = fmt.Sprintf("k%02d", rng.Intn(keys))
			}
			docs, missing, err := c.GetMany(context.Background(), ids)
			if err != nil {
				fail("GetMany: %v", err)
				break
			}
			isMissing := map[int]bool{}
			for _, si := range missing {
				isMissing[si] = true
				if serving(si) {
					fail("GetMany reports serving shard %d missing", si)
				}
			}
			for i, id := range ids {
				si := c.ShardOfID(id)
				want, exists := model[id]
				switch {
				case dark[si] && (docs[i] != nil || !isMissing[si]):
					fail("GetMany %s on dark shard %d: doc %v, missing %v", id, si, docs[i], missing)
				case isMissing[si]:
					if docs[i] != nil {
						fail("GetMany %s returned a document from missing shard %d", id, si)
					}
				case !exists && docs[i] != nil:
					fail("GetMany %s = %s, model has none", id, docs[i].JSON())
				case exists && (docs[i] == nil || !bytes.Equal(docs[i].JSON(), want.JSON())):
					fail("GetMany %s = %v, model %s", id, docs[i], want.JSON())
				}
			}
		case r < 90:
			si := rng.Intn(shards)
			got, err := c.ShardIDsContext(context.Background(), si)
			if err != nil {
				checkShardErr("ShardIDsContext", si, err, ErrShardUnavailable)
				break
			}
			if dark[si] {
				fail("ShardIDsContext served dark shard %d", si)
			}
			if want := modelShardIDs(model, c, si); fmt.Sprint(got) != fmt.Sprint(want) {
				fail("ShardIDsContext(%d) = %v, model %v", si, got, want)
			}
		default:
			got, err := scanJSON(c)
			if err != nil {
				si, _ := UnavailableShard(err)
				if si < 0 || serving(si) {
					fail("ScanContext: %v", err)
				}
				break
			}
			for si := range dark {
				if dark[si] {
					fail("ScanContext succeeded over dark shard %d", si)
				}
			}
			if want := modelJSON(model, c); !bytes.Equal(got, want) {
				fail("ScanContext differs from model:\n got %s\nwant %s", got, want)
			}
		}
		if t.Failed() {
			return
		}
	}

	fp.ClearAll()
	clock.Add(int64(cooldown))
	got, err := scanJSON(c)
	if err != nil {
		fail("final ScanContext: %v", err)
	} else if want := modelJSON(model, c); !bytes.Equal(got, want) {
		fail("final ScanContext differs from model:\n got %s\nwant %s", got, want)
	}
}

// scanJSON serialises a full ScanContext, one document per line.
func scanJSON(c *Collection) ([]byte, error) {
	var buf bytes.Buffer
	err := c.ScanContext(context.Background(), func(d jsondoc.Doc) bool {
		buf.Write(d.JSON())
		buf.WriteByte('\n')
		return true
	})
	return buf.Bytes(), err
}

// modelJSON serialises the model in scan order: shards in turn, ids
// sorted within each.
func modelJSON(model map[string]jsondoc.Doc, c *Collection) []byte {
	var buf bytes.Buffer
	for si := 0; si < c.NumShards(); si++ {
		for _, id := range modelShardIDs(model, c, si) {
			buf.Write(model[id].JSON())
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// modelShardIDs lists the model's ids placed on shard si, sorted.
func modelShardIDs(model map[string]jsondoc.Doc, c *Collection, si int) []string {
	ids := []string{}
	for id := range model {
		if c.ShardOfID(id) == si {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}
