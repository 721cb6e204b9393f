package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/collect"
	"repro/internal/collect/seglog"
	"repro/internal/trace"
)

// fakeCorpus is a corpusSource over fixed per-app bundles.
type fakeCorpus map[string][]*trace.TraceBundle

func (f fakeCorpus) Apps() []string {
	apps := make([]string, 0, len(f))
	for app := range f {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	return apps
}

func (f fakeCorpus) Bundles(appID string) []*trace.TraceBundle { return f[appID] }

func corpusOf(apps ...string) fakeCorpus {
	f := fakeCorpus{}
	for _, app := range apps {
		key := trace.EventKey{Class: "L", Callback: "f"}
		f[app] = []*trace.TraceBundle{{
			Event: trace.EventTrace{
				AppID: app, UserID: "u", Device: "nexus6", TraceID: "t1",
				Records: []trace.Record{
					{TimestampMS: 1, Dir: trace.Enter, Key: key},
					{TimestampMS: 5, Dir: trace.Exit, Key: key},
				},
			},
			Util: trace.UtilizationTrace{AppID: app, PeriodMS: 500},
		}}
	}
	return f
}

// readDump loads one dump file back, keyed by the app IDs it holds.
func readDump(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bundles, err := trace.ReadBundles(f)
	if err != nil {
		t.Fatal(err)
	}
	var apps []string
	for _, b := range bundles {
		apps = append(apps, b.Event.AppID)
	}
	return apps
}

// TestDumpCorpusStaysInsideOut: an uploaded app ID of "../escape" must
// not write outside -out.
func TestDumpCorpusStaysInsideOut(t *testing.T) {
	root := t.TempDir()
	out := filepath.Join(root, "out")
	if err := os.Mkdir(out, 0o755); err != nil {
		t.Fatal(err)
	}
	dumps, err := dumpCorpus(out, 1, corpusOf("../escape"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 || filepath.Dir(dumps[0].path) != out {
		t.Fatalf("dumps = %+v, want one file directly in %s", dumps, out)
	}
	if _, err := os.Stat(filepath.Join(root, "escape.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("dump escaped -out: stat err = %v", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out" {
		t.Fatalf("files next to -out: %v", entries)
	}
	if got := readDump(t, dumps[0].path); len(got) != 1 || got[0] != "../escape" {
		t.Fatalf("dump holds apps %v, want the original ID", got)
	}
}

// TestDumpCorpusSeparatesCollidingApps: "a/b" and "a_b" sanitize to
// similar names but must land in distinct files.
func TestDumpCorpusSeparatesCollidingApps(t *testing.T) {
	out := t.TempDir()
	dumps, err := dumpCorpus(out, 2, corpusOf("a/b", "a_b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 2 || dumps[0].path == dumps[1].path {
		t.Fatalf("dumps = %+v, want two distinct files", dumps)
	}
	for i, app := range []string{"a/b", "a_b"} {
		if got := readDump(t, dumps[i].path); len(got) != 1 || got[0] != app {
			t.Errorf("%s holds apps %v, want only %q", dumps[i].path, got, app)
		}
	}
}

// TestDumpCorpusKeepsCleanNames: path-safe app IDs keep their exact
// <app>.jsonl name, which is what energydx -in is pointed at.
func TestDumpCorpusKeepsCleanNames(t *testing.T) {
	out := t.TempDir()
	apps := []string{"k9mail", "com.example.app", "A-1.2_3"}
	if _, err := dumpCorpus(out, 0, corpusOf(apps...)); err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		if got := readDump(t, filepath.Join(out, app+".jsonl")); len(got) != 1 || got[0] != app {
			t.Errorf("%s.jsonl holds apps %v", app, got)
		}
	}
}

// TestDumpQuarantineListsEveryStoresRejects: the shutdown dump writes
// each store's quarantine, in store order, as JSON lines under
// <out>/quarantine/rejected.jsonl, and writes nothing without rejects.
func TestDumpQuarantineListsEveryStoresRejects(t *testing.T) {
	var stores []collect.Store
	for i := 0; i < 2; i++ {
		st, err := collect.NewSegStore(t.TempDir(), seglog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		stores = append(stores, st)
	}
	out := t.TempDir()
	if n, err := dumpQuarantine(out, stores); err != nil || n != 0 {
		t.Fatalf("empty quarantine: n=%d err=%v", n, err)
	}
	if _, err := os.Stat(filepath.Join(out, "quarantine")); !os.IsNotExist(err) {
		t.Fatalf("quarantine dir written without rejects: %v", err)
	}

	want := []string{"shard0-a", "shard0-b", "shard1-a"}
	for _, r := range want {
		st := stores[0]
		if strings.HasPrefix(r, "shard1") {
			st = stores[1]
		}
		if err := st.AppendQuarantine(collect.QuarantineEntry{Reason: r, Line: []byte("bad " + r)}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := dumpQuarantine(out, stores)
	if err != nil || n != len(want) {
		t.Fatalf("dumpQuarantine = %d, %v; want %d", n, err, len(want))
	}
	data, err := os.ReadFile(filepath.Join(out, quarantineDump))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("rejected.jsonl has %d lines, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		var e collect.QuarantineEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.Reason != want[i] || string(e.Line) != "bad "+want[i] {
			t.Errorf("line %d = %+v, want reason %q", i, e, want[i])
		}
	}
}
