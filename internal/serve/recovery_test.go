package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsm96/internal/core"
)

// TestStoreObjectVerification pins the content-addressed read path:
// what comes out hashes to its name, or nothing comes out.
func TestStoreObjectVerification(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sha, size, err := st.PutObject(func(w io.Writer) error {
		_, werr := io.WriteString(w, "artifact body\n")
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len("artifact body\n")) {
		t.Fatalf("size %d", size)
	}
	data, err := st.GetObject(sha)
	if err != nil || string(data) != "artifact body\n" {
		t.Fatalf("read back: %q, %v", data, err)
	}
	// Corrupt it in place: the read must refuse.
	if err := os.WriteFile(st.objectPath(sha), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetObject(sha); err == nil || !strings.Contains(err.Error(), "verification") {
		t.Fatalf("corrupted object served: %v", err)
	}
	if _, err := st.GetObject("../../etc/passwd"); err == nil {
		t.Fatal("malformed object name accepted")
	}
}

// TestStoreFailureLatch pins degraded-mode semantics: the first write
// failure latches, and every later durable operation refuses with
// ErrStoreFailed while reads keep working.
func TestStoreFailureLatch(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := &JobRecord{Schema: RecordSchema, Key: "k1", State: StateDone}
	if err := st.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	st.setWriteHook(func(string) error { return errors.New("io error") })
	if err := st.PutRecord(rec); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("hooked write: %v", err)
	}
	st.setWriteHook(nil) // the latch, not the hook, must hold the failure
	if err := st.PutRecord(rec); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("latch released: %v", err)
	}
	if !st.Failed() {
		t.Fatal("Failed() false after latched failure")
	}
	if got, err := st.GetRecord("k1"); err != nil || got == nil {
		t.Fatalf("read path broken in degraded mode: %v", err)
	}
}

// TestStoreRecoveryProperty is the randomized crash-recovery property
// test: a server is killed (every durable write fails from a random
// countdown on — byte-for-byte what a dead process leaves, since ops
// are atomic) at an arbitrary lifecycle point under concurrent load,
// crash debris is scattered on top, and a restart must repair the store
// to a consistent state: no temp files, no running/failed records, no
// unreferenced or torn artifacts, no lost or duplicated done jobs —
// and a full resubmission reaches done with pre-crash results served
// byte-identically from cache.
func TestStoreRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260810))
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			root := t.TempDir()
			specs := []*JobSpec{
				tinyJob("tsp", 2), tinyJob("tsp", 4), tinyJob("radix", 2),
				tinyJob("water", 2), tinyJob("em3d", 4), tinyJob("ocean", 2),
			}

			// Phase 1: a loaded server crashes at a random write op.
			srv, err := NewServer(root, Options{Workers: 2, QueueCap: 32,
				Run: func(job *ResolvedJob) (*core.Result, error) { return fakeResult(job), nil }})
			if err != nil {
				t.Fatal(err)
			}
			var ops int32
			crashAfter := int32(rng.Intn(20))
			srv.Store().setWriteHook(func(string) error {
				if atomic.AddInt32(&ops, 1) > crashAfter {
					return errors.New("simulated crash")
				}
				return nil
			})
			hs := httptest.NewServer(srv.Handler())
			c := &Client{Base: hs.URL, sleep: func(time.Duration) {}, BusyRetries: 2}
			for _, spec := range specs {
				c.Submit(spec, false) // 503/429 after the "crash" are expected; ignore
			}
			srv.Drain()
			hs.Close()

			// The on-disk state now is exactly the crash-point prefix.
			// Record which jobs had committed as done before scattering
			// debris a hard kill could also leave.
			preStore, err := OpenStore(root)
			if err != nil {
				t.Fatal(err)
			}
			preRecs, err := preStore.ListRecords()
			if err != nil {
				t.Fatal(err)
			}
			doneBefore := map[string]string{} // key -> artifact sha
			for _, r := range preRecs {
				if r.State == StateDone && r.Result != nil {
					doneBefore[r.Key] = r.Result.MetricsSHA256
				}
			}
			debris := []string{
				filepath.Join(root, "jobs", "half.json.tmp-1234"),
				filepath.Join(root, "objects", "obj.tmp-99"),
				filepath.Join(root, "manifest.json.tmp-7"),
			}
			for _, p := range debris {
				if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(root, "jobs", "garbage.json"), []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
			orphan := []byte("artifact nobody committed")
			orphanPath := filepath.Join(root, "objects", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
			if err := os.WriteFile(orphanPath, orphan, 0o644); err != nil {
				t.Fatal(err)
			}

			// Phase 2: restart recovery scan.
			st2, err := OpenStore(root)
			if err != nil {
				t.Fatal(err)
			}
			rep, backlog, err := st2.Recover(3)
			if err != nil {
				t.Fatal(err)
			}
			if rep.CorruptRemoved < 1 {
				t.Errorf("corrupt record survived: %+v", rep)
			}
			if rep.TmpRemoved < len(debris) {
				t.Errorf("tmp debris survived: %+v", rep)
			}
			var tmps []string
			filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err == nil && strings.Contains(d.Name(), ".tmp-") {
					tmps = append(tmps, p)
				}
				return nil
			})
			if len(tmps) > 0 {
				t.Errorf("temp files after recovery: %v", tmps)
			}
			if _, err := os.Stat(orphanPath); !os.IsNotExist(err) {
				t.Error("unreferenced object survived GC")
			}
			recs, err := st2.ListRecords()
			if err != nil {
				t.Fatal(err)
			}
			referenced := map[string]bool{}
			for _, r := range recs {
				switch r.State {
				case StateDone:
					if r.Result == nil {
						t.Fatalf("done record %s without result", r.Key)
					}
					if _, err := st2.GetObject(r.Result.MetricsSHA256); err != nil {
						t.Errorf("done record %s vouches for bad artifact: %v", r.Key, err)
					}
					referenced[r.Result.MetricsSHA256] = true
				case StatePending, StateQuarantined:
				default:
					t.Errorf("record %s rests in %s after recovery", r.Key, r.State)
				}
			}
			// No done job committed before the crash may be lost.
			for key, sha := range doneBefore {
				found := false
				for _, r := range recs {
					if r.Key == key && r.State == StateDone && r.Result.MetricsSHA256 == sha {
						found = true
					}
				}
				if !found {
					t.Errorf("done job %s lost by recovery", key)
				}
			}
			objs, _ := os.ReadDir(filepath.Join(root, "objects"))
			for _, o := range objs {
				if !referenced[o.Name()] {
					t.Errorf("object %s referenced by no done record", o.Name())
				}
			}
			for _, b := range backlog {
				if b.State != StatePending {
					t.Errorf("backlog entry %s in state %s", b.Key, b.State)
				}
			}
			// Idempotence: a second scan finds nothing left to repair.
			rep2, _, err := st2.Recover(3)
			if err != nil {
				t.Fatal(err)
			}
			if rep2.TmpRemoved != 0 || rep2.CorruptRemoved != 0 || rep2.ObjectsRemoved != 0 || rep2.ResultsInvalidated != 0 {
				t.Errorf("second recovery still repairing: %+v", rep2)
			}
			if rep2.Done != rep.Done {
				t.Errorf("second recovery sees %d done, first saw %d", rep2.Done, rep.Done)
			}

			// Phase 3: a healthy restart finishes the backlog and serves
			// pre-crash results from cache, byte-identical.
			srv3, err := NewServer(root, Options{Workers: 2, QueueCap: 32,
				Run: func(job *ResolvedJob) (*core.Result, error) { return fakeResult(job), nil }})
			if err != nil {
				t.Fatal(err)
			}
			hs3 := httptest.NewServer(srv3.Handler())
			c3 := &Client{Base: hs3.URL, sleep: func(time.Duration) {}}
			for _, spec := range specs {
				st, err := c3.Submit(spec, true)
				if err != nil {
					t.Fatalf("resubmit: %v", err)
				}
				if st.State != StateDone || st.Result == nil {
					t.Fatalf("resubmit rests in %s", st.State)
				}
				if wantSha, was := doneBefore[st.Key]; was {
					if st.Result.MetricsSHA256 != wantSha {
						t.Errorf("job %s re-ran to a different artifact: %s vs %s", st.Key, st.Result.MetricsSHA256, wantSha)
					}
					art, err := c3.Artifact(st.Result.MetricsSHA256)
					if err != nil {
						t.Fatal(err)
					}
					disk, err := st2.GetObject(wantSha)
					if err != nil || !bytes.Equal(art, disk) {
						t.Errorf("cached artifact for %s not byte-identical: %v", st.Key, err)
					}
				}
			}
			srv3.Drain()
			hs3.Close()
		})
	}
}

// TestRecoveryIgnoresRetiredWorkers: a journal record whose embedded
// spec still carries the retired engine-worker count ("workers") is
// requeued and completed under its original key — the worker count
// never entered the job identity, and recovery decodes leniently.
func TestRecoveryIgnoresRetiredWorkers(t *testing.T) {
	root := t.TempDir()
	key := resolve(t, tinyJob("tsp", 2)).Key
	st, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"schema":"dsm96/job/v1","app":"tsp","protocol":"Base","scale":"tiny","procs":2,"workers":4}`)
	if err := st.PutRecord(&JobRecord{Schema: RecordSchema, Key: key, Spec: spec, State: StatePending}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(root, Options{Workers: 1,
		Run: func(job *ResolvedJob) (*core.Result, error) { return fakeResult(job), nil }})
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	rec, err := srv.Store().GetRecord(key)
	if err != nil || rec == nil {
		t.Fatalf("record %s lost in recovery (err %v)", key, err)
	}
	if rec.State != StateDone || rec.Result == nil {
		t.Fatalf("recovered job rests in state %s, want %s with a result", rec.State, StateDone)
	}
}
