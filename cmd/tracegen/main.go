// Command tracegen generates a synthetic trace corpus for one of the
// evaluated apps and writes it as JSON-lines bundles, or uploads it to a
// running collection server (cmd/collectd) as binenc bundle frames.
//
// With -revisions N it instead generates an N-version revision chain
// of the app (seeded mutation operators, optionally one injected energy
// regression) and writes one corpus per version to <out>.v<i>.jsonl —
// the inputs `energydx -diff` and `-gate` compare.
//
// Usage:
//
//	tracegen -app k9mail -users 30 -impacted 0.15 -out corpus.jsonl
//	tracegen -app opengps -upload 127.0.0.1:7600
//	tracegen -app k9mail -revisions 3 -regression-at 2 -impacted 0 -out chain
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"repro/internal/apps"
	"repro/internal/collect"
	"repro/internal/obs"
	"repro/internal/revision"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		appID     = flag.String("app", "k9mail", "app to simulate (catalog ID, e.g. k9mail, opengps)")
		users     = flag.Int("users", 30, "number of volunteer users")
		impacted  = flag.Float64("impacted", 0.15, "fraction of users that trigger the ABD")
		seed      = flag.Int64("seed", 1, "simulation seed")
		fixed     = flag.Bool("fixed", false, "simulate the fixed app variant")
		out       = flag.String("out", "-", "output file ('-' for stdout); with -revisions, the per-version file prefix")
		upload    = flag.String("upload", "", "upload to a collectd address instead of writing a file")
		revisions = flag.Int("revisions", 0, "generate a version chain of this many versions (including v0) and write one corpus per version to <out>.v<i>.jsonl")
		regrAt    = flag.Int("regression-at", 0, "inject an energy regression at this chain version (1-based; 0 = clean chain)")
		regrKind  = flag.String("kind", "", "regression family: hold|loop|hot (default: drawn from the seed)")
		rewires   = flag.Bool("rewires", false, "also draw callback-rewire edits into the chain")
		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "log output format: text|json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	app, err := apps.ByAppID(*appID)
	if err != nil {
		return err
	}
	if *revisions > 0 {
		if *upload != "" {
			return fmt.Errorf("-revisions cannot be combined with -upload")
		}
		if *out == "-" {
			return fmt.Errorf("-revisions needs -out as a file prefix, not stdout")
		}
		return writeChain(app, chainOptions{
			out: *out, versions: *revisions, seed: *seed, regressionAt: *regrAt,
			kind: *regrKind, rewires: *rewires, users: *users, impacted: *impacted,
		}, logger)
	}

	cfg := workload.DefaultConfig(app, *seed)
	cfg.Users = *users
	cfg.ImpactedFraction = *impacted
	cfg.Fixed = *fixed

	if *upload != "" {
		// The upload client batches and retries over the whole corpus, so
		// this path still materializes it.
		res, err := workload.Generate(cfg)
		if err != nil {
			return err
		}
		logger.Info("generated corpus", "bundles", len(res.Bundles), "app", app.Name,
			"impacted_pct", fmt.Sprintf("%.1f", res.ImpactedPercent))
		client := collect.NewClient(*upload)
		state := collect.PhoneState{Charging: true, OnWiFi: true}
		if err := client.Upload(state, res.Bundles); err != nil {
			return fmt.Errorf("upload: %w", err)
		}
		st := client.Stats()
		logger.Info("uploaded", "addr", *upload, "acked", st.Acked,
			"lines_sent", st.LinesSent, "attempts", st.Attempts)
		return nil
	}

	// File and stdout output stream each bundle to the writer as its
	// session completes: peak memory is one user's traces, not the
	// corpus.
	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	bundles := 0
	res, err := workload.GenerateStream(cfg, func(b *trace.TraceBundle) error {
		bundles++
		return trace.EncodeBundle(bw, b)
	})
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write corpus: %w", err)
	}
	logger.Info("generated corpus", "bundles", bundles, "app", app.Name,
		"impacted_pct", fmt.Sprintf("%.1f", res.ImpactedPercent))
	return nil
}

type chainOptions struct {
	out          string
	versions     int
	seed         int64
	regressionAt int
	kind         string
	rewires      bool
	users        int
	impacted     float64
}

// writeChain generates a revision chain and writes each version's
// corpus to <out>.v<i>.jsonl. The ground-truth culprit of a regression
// chain is logged so CI smoke tests can assert the gate's verdict
// against it.
func writeChain(app *apps.App, opts chainOptions, logger *slog.Logger) error {
	if opts.kind != "" {
		valid := false
		for _, k := range revision.Kinds() {
			if string(k) == opts.kind {
				valid = true
			}
		}
		if !valid {
			return fmt.Errorf("unknown regression kind %q (want one of %v)", opts.kind, revision.Kinds())
		}
	}
	ccfg := revision.ChainConfig{
		App:          app,
		Versions:     opts.versions,
		Seed:         opts.seed,
		RegressionAt: opts.regressionAt,
		Kind:         revision.Kind(opts.kind),
		Rewires:      opts.rewires,
	}
	chain, err := revision.GenerateChain(ccfg)
	if err != nil {
		return err
	}
	corpora, err := revision.ChainCorpora(chain, ccfg, revision.CorpusConfig{
		Users:            opts.users,
		ImpactedFraction: opts.impacted,
	})
	if err != nil {
		return err
	}
	for i, bundles := range corpora {
		path := fmt.Sprintf("%s.v%d.jsonl", opts.out, i)
		if err := writeCorpus(path, bundles); err != nil {
			return err
		}
		logger.Info("wrote version corpus", "path", path,
			"version", chain.Versions[i].App.Package().ID(), "bundles", len(bundles))
	}
	if chain.RegressionAt > 0 {
		logger.Info("chain ground truth", "regression_at", chain.RegressionAt,
			"kind", chain.Kind, "culprit", chain.Culprit.String())
	}
	return nil
}

// writeCorpus writes one version's bundles as JSON lines.
func writeCorpus(path string, bundles []*trace.TraceBundle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, b := range bundles {
		if err := trace.EncodeBundle(bw, b); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
