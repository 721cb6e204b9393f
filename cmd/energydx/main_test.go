package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/revision"
	"repro/internal/trace"
)

// writeChain generates a revision chain of K9Mail and writes each
// version's corpus as JSON lines, as tracegen -revisions does, and
// returns the paths and the chain.
func writeChain(t *testing.T, ccfg revision.ChainConfig, cc revision.CorpusConfig) ([]string, *revision.Chain) {
	t.Helper()
	app, err := apps.K9Mail()
	if err != nil {
		t.Fatal(err)
	}
	ccfg.App = app
	chain, err := revision.GenerateChain(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	corpora, err := revision.ChainCorpora(chain, ccfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for i, bundles := range corpora {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		for _, b := range bundles {
			if err := trace.EncodeBundle(bw, b); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("chain.v%d.jsonl", i))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths, chain
}

// runCmd runs the command in process and returns its exit status,
// stdout and stderr.
func runCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(""), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestGateExitStatus pins the exit status CI depends on: on a seeded
// regression chain -gate passes the clean hop v0→v1 (0) and fails the
// regressing hop v1→v2 (1), and on a clean chain of the revision
// battery (K9Mail, seed 1, five versions) it passes every hop.
func TestGateExitStatus(t *testing.T) {
	regr, _ := writeChain(t,
		revision.ChainConfig{Versions: 3, Seed: 7, RegressionAt: 2, Kind: revision.KindHold, Rewires: true},
		revision.CorpusConfig{Users: 12})
	if code, out, errs := runCmd("-gate", regr[0], regr[1]); code != 0 {
		t.Fatalf("-gate on the clean hop exited %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	code, out, errs := runCmd("-gate", regr[1], regr[2])
	if code != 1 {
		t.Fatalf("-gate on the regressing hop exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	if !strings.Contains(errs, "regression gate failed") {
		t.Fatalf("a failed gate must say so on stderr, got:\n%s", errs)
	}

	clean, _ := writeChain(t,
		revision.ChainConfig{Versions: 5, Seed: 1, EditsPerVersion: 2, Rewires: true},
		revision.CorpusConfig{Users: 5, Seed: 11, BrowsePhases: 4})
	for i := 1; i < len(clean); i++ {
		if code, out, errs := runCmd("-gate", "-json", clean[i-1], clean[i]); code != 0 {
			t.Fatalf("-gate on clean hop v%d→v%d exited %d, want 0\nstdout:\n%s\nstderr:\n%s", i-1, i, code, out, errs)
		}
	}

	if code, _, _ := runCmd("-gate", regr[0]); code != 1 {
		t.Fatalf("-gate with one corpus exited %d, want 1", code)
	}
	if code, _, _ := runCmd("-no-such-flag"); code != 2 {
		t.Fatalf("an unknown flag exited %d, want 2", code)
	}
}

// TestDiffOutputStable: -diff over the same two corpora prints the same
// bytes every run, text and JSON, and the text names the chain's
// ground-truth culprit.
func TestDiffOutputStable(t *testing.T) {
	paths, chain := writeChain(t,
		revision.ChainConfig{Versions: 3, Seed: 7, RegressionAt: 2, Kind: revision.KindHold, Rewires: true},
		revision.CorpusConfig{Users: 12})
	for _, args := range [][]string{
		{"-diff", paths[1], paths[2]},
		{"-diff", "-json", paths[1], paths[2]},
	} {
		code, first, errs := runCmd(args...)
		if code != 0 {
			t.Fatalf("%v exited %d\nstderr:\n%s", args, code, errs)
		}
		if _, again, _ := runCmd(args...); again != first {
			t.Fatalf("%v printed different bytes on a second run", args)
		}
		if args[1] != "-json" && !strings.Contains(first, chain.Culprit.String()) {
			t.Fatalf("-diff output does not name the culprit %s:\n%s", chain.Culprit, first)
		}
	}
}
