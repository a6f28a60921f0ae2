package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/mathx"
	"icsdetect/internal/scenario"
	"icsdetect/internal/trace"
)

// corpusDir is the committed golden corpus, relative to the repository
// root the benchmark runs from.
const corpusDir = "testdata/traces"

// traffic is one generated gas-pipeline capture: the encoded trace records
// the load generator sends, and the packages the server decodes from them.
// Record i is wire[offs[i]:offs[i+1]]; the flat, pointer-free layout keeps
// the generator's inputs out of the garbage collector's way.
type traffic struct {
	header trace.Header
	wire   []byte
	offs   []int
	pkgs   []*dataset.Package
}

// records returns the encoded records [from, to).
func (t *traffic) records(from, to int) []byte { return t.wire[t.offs[from]:t.offs[to]] }

// genTraffic records at least n packages of gas-pipeline polling from a
// simulation seeded with seed, with attack episodes of all seven Table II
// categories making up about attackRatio of the packages. The trace is not
// pinned to a model fingerprint, so any served model accepts it.
func genTraffic(seed uint64, n int, attackRatio float64) (*traffic, error) {
	tb := gaspipeline.Scenario()
	sim, err := tb.NewSim(seed)
	if err != nil {
		return nil, err
	}
	// Unrecorded warm-up so the control loop and CRC window settle.
	for i := 0; i < 60; i++ {
		sim.RunNormalCycle(dataset.Normal)
	}
	warm := len(sim.Packages())
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, trace.SimHeader("perfbench", "", tb.Registers()))
	if err != nil {
		return nil, err
	}
	sim.SetFrameSink(rec.RecordSim)
	// Interleave normal polling with attack episodes of every Table II
	// category in turn, starting an episode whenever the attack share has
	// fallen below the target.
	rng := mathx.NewRNG(seed ^ 0x5eed)
	lengths := scenario.DefaultEpisodeLengths()
	attacks, episodes := 0, 0
	for rec.Count() < n {
		pkgs := sim.Packages()
		if float64(attacks) >= attackRatio*float64(len(pkgs)-warm+1) {
			sim.RunNormalCycle(dataset.Normal)
			continue
		}
		at := dataset.AttackTypes[episodes%len(dataset.AttackTypes)]
		episodes++
		b := lengths[at]
		if err = sim.RunAttackEpisode(at, b[0]+rng.Intn(b[1]-b[0]+1)); err != nil {
			break
		}
		for _, p := range sim.Packages()[len(pkgs):] {
			if p.IsAttack() {
				attacks++
			}
		}
	}
	sim.SetFrameSink(nil)
	if err != nil {
		return nil, fmt.Errorf("generate traffic: %w", err)
	}
	if err := rec.Flush(); err != nil {
		return nil, err
	}
	hdr, recs, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	pkgs, err := trace.Packages(hdr, recs)
	if err != nil {
		return nil, err
	}
	t := &traffic{header: hdr, pkgs: pkgs, offs: make([]int, 0, len(recs)+1)}
	var enc bytes.Buffer
	tw, err := trace.NewWriter(&enc, hdr)
	if err != nil {
		return nil, err
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	head := enc.Len()
	for _, r := range recs {
		t.offs = append(t.offs, enc.Len()-head)
		if err := tw.Write(r); err != nil {
			return nil, err
		}
		if err := tw.Flush(); err != nil {
			return nil, err
		}
	}
	t.offs = append(t.offs, enc.Len()-head)
	t.wire = enc.Bytes()[head:]
	return t, nil
}

// attackShare is the fraction of packages labeled as attack traffic.
func attackShare(pkgs []*dataset.Package) float64 {
	n := 0
	for _, p := range pkgs {
		if p.IsAttack() {
			n++
		}
	}
	return float64(n) / float64(len(pkgs))
}

// loadModel reads the committed corpus model.
func loadModel() (*core.Framework, error) {
	f, err := os.Open(filepath.Join(corpusDir, "model.fw"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

// trainingSplit is the attack-free split extra stack levels train on,
// decoded from wire bytes like the corpus model's own training data.
func trainingSplit(seed uint64) (*dataset.Split, error) {
	t, err := genTraffic(seed^0x7a11, 6000, 0)
	if err != nil {
		return nil, err
	}
	return dataset.MakeSplit(&dataset.Dataset{Packages: t.pkgs}, dataset.SplitConfig{})
}

// verdictHash folds one verdict into a 64-bit FNV-1a digest over every
// field a subscriber sees, evidence included; scratch is reused and
// returned so the subscriber's hot path does not allocate.
func verdictHash(scratch []byte, v core.Verdict) (uint64, []byte) {
	b := scratch[:0]
	flags := byte(0)
	if v.Anomaly {
		flags = 1
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(v.Level))
	b = binary.AppendVarint(b, int64(v.Rank))
	b = binary.AppendUvarint(b, uint64(len(v.Signature)))
	b = append(b, v.Signature...)
	b = binary.AppendUvarint(b, uint64(len(v.Evidence)))
	for _, e := range v.Evidence {
		b = binary.AppendUvarint(b, uint64(len(e.Stage)))
		b = append(b, e.Stage...)
		b = binary.AppendVarint(b, int64(e.Level))
		fl := byte(0)
		if e.Scored {
			fl |= 1
		}
		if e.Flagged {
			fl |= 2
		}
		b = append(b, fl)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.Score))
		b = binary.AppendVarint(b, int64(e.Rank))
	}
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h, b
}

// reference classifies pkgs with a sequential core.Session of spec — the
// verdicts every engine and server path must reproduce — and returns one
// verdict hash per package.
func reference(fw *core.Framework, spec core.StackSpec, pkgs []*dataset.Package) ([]uint64, error) {
	st, err := fw.NewStack(spec)
	if err != nil {
		return nil, err
	}
	sess := st.NewSession()
	out := make([]uint64, len(pkgs))
	var scratch []byte
	for i, p := range pkgs {
		out[i], scratch = verdictHash(scratch, sess.Classify(p))
	}
	return out, nil
}
