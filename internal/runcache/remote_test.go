package runcache

import (
	"context"
	"encoding/json"
	"testing"

	"sparc64v/internal/system"
)

// scriptedRemote is a Remote backed by a map of envelope bytes, with an
// optional corruptor applied to every response.
type scriptedRemote struct {
	entries map[string][]byte
	corrupt func([]byte) []byte
	fetches int
}

func (r *scriptedRemote) Fetch(_ context.Context, key Key) ([]byte, bool) {
	r.fetches++
	b, ok := r.entries[key.ID()]
	if !ok {
		return nil, false
	}
	if r.corrupt != nil {
		b = r.corrupt(b)
	}
	return b, true
}

func remoteTestKey(seed int64) Key {
	return Key{ConfigHash: "cfg", Workload: "wl", ProfileHash: "prof", Seed: seed, Insts: 1000, Version: "v"}
}

func remoteTestReport(tag uint64) system.Report {
	r := system.Report{Name: "cfg", Workload: "wl", Cycles: 100 + tag, Committed: 50 + tag}
	r.CPUs = make([]system.CPUReport, 1)
	r.CPUs[0].Core.Cycles = 90 + tag
	return r
}

// mustEncode builds envelope bytes for the scripted remote.
func mustEncode(t *testing.T, key Key, rep system.Report) []byte {
	t.Helper()
	b, err := EncodeEntry(key, rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRemoteHit: a key missing from memory and disk but present at the
// remote is served without running, reported as OutcomeRemoteHit, and
// persisted to the local disk tier for the next process.
func TestRemoteHit(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key, rep := remoteTestKey(1), remoteTestReport(1)
	remote := &scriptedRemote{entries: map[string][]byte{key.ID(): mustEncode(t, key, rep)}}
	c.SetRemote(remote)

	ran := false
	got, outcome, err := c.GetOrRun(context.Background(), key, func(context.Context) (system.Report, error) {
		ran = true
		return system.Report{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("remote hit still ran the simulation")
	}
	if outcome != OutcomeRemoteHit || outcome.String() != "hit-peer" {
		t.Fatalf("outcome = %v (%s), want OutcomeRemoteHit/hit-peer", outcome, outcome)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(rep)
	if string(a) != string(b) {
		t.Fatalf("remote report differs:\n%s\n%s", a, b)
	}
	if s := c.Stats(); s.PeerHits != 1 || s.Misses != 0 || s.PeerCorrupt != 0 {
		t.Fatalf("stats = %+v, want 1 peer hit", s)
	}
	if s := c.Stats(); s.HitInstructions != rep.Committed {
		t.Fatalf("HitInstructions = %d, want %d", s.HitInstructions, rep.Committed)
	}

	// The fetched entry was persisted: a fresh cache over the same dir
	// serves it from disk without touching the remote.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fetchesBefore := remote.fetches
	c2.SetRemote(remote)
	if _, outcome, err := c2.GetOrRun(context.Background(), key, nil); err != nil || outcome != OutcomeDiskHit {
		t.Fatalf("replay outcome = %v err=%v, want disk hit", outcome, err)
	}
	if remote.fetches != fetchesBefore {
		t.Fatal("disk-tier hit still crossed the network")
	}
}

// TestRemoteCorruptTreatedAsMiss covers every rejection mode: bit-flipped
// payload, wrong-key envelope, and garbage bytes each count PeerCorrupt
// and fall through to the runner — a corrupt peer can cost a fetch, never
// a wrong result.
func TestRemoteCorruptTreatedAsMiss(t *testing.T) {
	key, rep := remoteTestKey(2), remoteTestReport(2)
	good := mustEncode(t, key, rep)
	otherKey := remoteTestKey(3)

	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"bit flip", flipByte(good, len(good)/2)},
		{"wrong key", mustEncode(t, otherKey, rep)},
		{"garbage", []byte("{nope")},
		{"truncated", good[:len(good)/2]},
	} {
		c, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.SetRemote(&scriptedRemote{entries: map[string][]byte{key.ID(): tc.payload}})
		ran := false
		got, outcome, err := c.GetOrRun(context.Background(), key, func(context.Context) (system.Report, error) {
			ran = true
			return rep, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !ran || outcome != OutcomeMiss {
			t.Fatalf("%s: ran=%v outcome=%v, want a simulated miss", tc.name, ran, outcome)
		}
		if got.Cycles != rep.Cycles {
			t.Fatalf("%s: wrong report returned", tc.name)
		}
		if s := c.Stats(); s.PeerCorrupt != 1 || s.PeerHits != 0 {
			t.Fatalf("%s: stats = %+v, want 1 rejected peer entry", tc.name, s)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	out[i] ^= 0x40
	return out
}

// TestEntryBytesServesBothTiers: EntryBytes answers from memory (fresh
// envelope) and from disk (stored bytes), never from the remote tier,
// and its responses round-trip through DecodeEntry.
func TestEntryBytesServesBothTiers(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key, rep := remoteTestKey(4), remoteTestReport(4)
	store(t, c, key, rep)
	// A remote that panics proves EntryBytes never recurses outward.
	c.SetRemote(panicRemote{})

	b, ok := c.EntryBytes(key.ID())
	if !ok {
		t.Fatal("memory-tier entry not served")
	}
	if got, err := DecodeEntry(key, b); err != nil || got.Cycles != rep.Cycles {
		t.Fatalf("memory envelope decode: %v", err)
	}

	// Fresh cache, same dir: the memory tier is empty, so this serves the
	// stored disk bytes.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c2.SetRemote(panicRemote{})
	b2, ok := c2.EntryBytes(key.ID())
	if !ok {
		t.Fatal("disk-tier entry not served")
	}
	if got, err := DecodeEntry(key, b2); err != nil || got.Cycles != rep.Cycles {
		t.Fatalf("disk envelope decode: %v", err)
	}

	if _, ok := c2.EntryBytes("no-such-id"); ok {
		t.Fatal("EntryBytes fabricated a missing entry")
	}
	// Serving a peer is not a local hit.
	if s := c2.Stats(); s.MemoryHits != 0 || s.DiskHits != 0 || s.PeerHits != 0 {
		t.Fatalf("EntryBytes polluted hit stats: %+v", s)
	}
}

type panicRemote struct{}

func (panicRemote) Fetch(context.Context, Key) ([]byte, bool) {
	panic("EntryBytes must never consult the remote tier")
}

// TestRemoteMissFallsThrough: a remote with no entry neither errors nor
// pollutes the corrupt counter.
func TestRemoteMissFallsThrough(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote := &scriptedRemote{entries: map[string][]byte{}}
	c.SetRemote(remote)
	key, rep := remoteTestKey(5), remoteTestReport(5)
	_, outcome, err := c.GetOrRun(context.Background(), key, func(context.Context) (system.Report, error) {
		return rep, nil
	})
	if err != nil || outcome != OutcomeMiss {
		t.Fatalf("outcome=%v err=%v, want plain miss", outcome, err)
	}
	if remote.fetches != 1 {
		t.Fatalf("remote consulted %d times, want 1", remote.fetches)
	}
	if s := c.Stats(); s.PeerCorrupt != 0 || s.PeerHits != 0 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Hits() folds the peer tier in.
	c.SetRemote(&scriptedRemote{entries: map[string][]byte{key.ID(): mustEncode(t, key, rep)}})
	key2 := remoteTestKey(6)
	c.SetRemote(&scriptedRemote{entries: map[string][]byte{key2.ID(): mustEncode(t, key2, rep)}})
	if _, outcome, _ := c.GetOrRun(context.Background(), key2, nil); outcome != OutcomeRemoteHit {
		t.Fatalf("outcome = %v, want remote hit", outcome)
	}
	if got := c.Stats().Hits(); got != 1 {
		t.Fatalf("Stats.Hits() = %d, want 1 (peer hits included)", got)
	}
}
