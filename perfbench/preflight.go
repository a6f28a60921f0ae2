package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"icsdetect/internal/core"
	"icsdetect/internal/serve"
	"icsdetect/internal/trace"
)

// preflight replays every committed golden trace, both testbeds, through a
// server with the benchmark's serving configuration and the paper's default
// stack (the stack the goldens pin), and requires each stream's verdicts to
// match its .verdicts file byte for byte. It runs before anything is timed.
func preflight(rep *report) error {
	type corpus struct{ name, dir string }
	var models []serve.Model
	type job struct {
		model, path string
		raw, golden []byte
		hdr         trace.Header
		n           int
	}
	var jobs []job
	for _, c := range []corpus{{"gaspipeline", corpusDir}, {"watertank", filepath.Join(corpusDir, "watertank")}} {
		f, err := os.Open(filepath.Join(c.dir, "model.fw"))
		if err != nil {
			return err
		}
		fw, err := core.Load(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("preflight: %s model: %w", c.name, err)
		}
		models = append(models, serve.Model{Name: c.name, Framework: fw})
		traces, err := filepath.Glob(filepath.Join(c.dir, "*.trace"))
		if err != nil {
			return err
		}
		sort.Strings(traces)
		for _, path := range traces {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			golden, err := os.ReadFile(strings.TrimSuffix(path, ".trace") + ".verdicts")
			if err != nil {
				return err
			}
			hdr, recs, err := trace.ReadAll(bytes.NewReader(raw))
			if err != nil {
				return fmt.Errorf("preflight: %s: %w", path, err)
			}
			jobs = append(jobs, job{model: c.name, path: path, raw: raw, golden: golden, hdr: hdr, n: len(recs)})
		}
	}
	if len(jobs) == 0 {
		return fmt.Errorf("preflight: no golden traces under %s", corpusDir)
	}
	ws, err := startServer(models, core.DefaultStackSpec(), nil)
	if err != nil {
		return err
	}
	defer ws.close()
	for i, j := range jobs {
		stream := fmt.Sprintf("golden-%02d", i)
		n, err := serve.Replay(ws.ingest, j.raw, serve.ReplayOptions{Stream: stream, Model: j.model})
		if err != nil {
			return fmt.Errorf("preflight: %s: %w", j.path, err)
		}
		if n != uint64(j.n) {
			return fmt.Errorf("preflight: %s: server accepted %d of %d packages", j.path, n, j.n)
		}
		vs := make([]core.Verdict, 0, j.n)
		for len(vs) < j.n {
			ev, err := ws.sub.Next()
			if err != nil {
				return fmt.Errorf("preflight: %s: subscriber: %w", j.path, err)
			}
			if ev.Stream != stream || ev.Seq != uint64(len(vs)) {
				return fmt.Errorf("preflight: %s: got event %s/%d, want %s/%d", j.path, ev.Stream, ev.Seq, stream, len(vs))
			}
			vs = append(vs, ev.Verdict)
		}
		doc := trace.FormatVerdicts(j.hdr.Scenario, j.hdr.Fingerprint, vs)
		if line := trace.DiffVerdicts(j.golden, doc); line != 0 {
			rep.fail("golden %s differs from the served verdicts at line %d", j.path, line)
		}
	}
	rep.printf("preflight: %d golden traces replayed through the server, verdicts byte-identical: %v", len(jobs), rep.correct)
	return nil
}
