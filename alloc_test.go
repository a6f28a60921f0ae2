// Hot-path allocation regression gates: steady-state classification must
// stay allocation-free on the sequential ClassifyOnly/Advance path for the
// default stack, and allocation-lean through the engine and for
// evidence-recording stacks (those allocate the per-verdict evidence slice
// the caller keeps). The bounds are measured ceilings plus one of slack.
package icsdetect_test

import (
	"testing"

	"icsdetect"
)

// classifyAllocs measures the mean allocations per package of a warmed
// sequential session over spec. reuse opts the session into the pooled
// per-verdict evidence buffer.
func classifyAllocs(t *testing.T, spec icsdetect.StackSpec, reuse bool) float64 {
	t.Helper()
	fx := loadStackFixture(t)
	sess, err := fx.det.NewStackSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	sess.ReuseEvidence(reuse)
	pkgs := fx.split.Test
	if len(pkgs) > 1400 {
		pkgs = pkgs[:1400]
	}
	warm := pkgs[:400]
	steady := pkgs[400:]
	for _, p := range warm {
		sess.Classify(p)
	}
	i := 0
	per := testing.AllocsPerRun(len(steady), func() {
		v, pc := sess.ClassifyOnly(steady[i])
		sess.Advance(pc, v)
		i++
		if i == len(steady) {
			i = 0
			sess.Reset()
		}
	})
	return per
}

// engineAllocs measures the mean allocations per package of a warmed
// engine over spec (whole submit→classify→handle path, all shards).
func engineAllocs(t *testing.T, spec icsdetect.StackSpec) float64 {
	t.Helper()
	fx := loadStackFixture(t)
	pkgs := fx.split.Test
	if len(pkgs) > 1400 {
		pkgs = pkgs[:1400]
	}
	eng, err := icsdetect.NewEngine(fx.det, icsdetect.EngineConfig{
		Shards: 2, MaxBatch: 8, QueueDepth: 32, Stack: spec,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	feed := func(n int) {
		for r := 0; r < n; r++ {
			for i := range pkgs {
				if err := eng.SubmitBatchFor(nil, "dev", pkgs[i:i+1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := eng.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	feed(1) // warm: stream state, batches, tick buffers
	const rounds = 3
	per := testing.AllocsPerRun(1, func() { feed(rounds) })
	return per / float64(rounds*len(pkgs))
}

// TestHotPathAllocations gates the per-package allocation counts. If a
// refactor trips a gate, either the hot path regressed (fix it) or the
// cost is deliberate (justify it and raise the bound in the same change).
func TestHotPathAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gates use the trained stack fixture")
	}
	defaultSpec := icsdetect.DefaultStack()
	fourSpec, err := icsdetect.ParseStack("bloom,pca,gmm,lstm", "majority")
	if err != nil {
		t.Fatal(err)
	}
	f32Spec := defaultSpec
	f32Spec.Precision = icsdetect.PrecisionF32
	cases := []struct {
		name    string
		engine  bool
		reuse   bool
		spec    icsdetect.StackSpec
		ceiling float64
	}{
		// Sequential default stack is allocation-free in steady state: the
		// session reuses its encoding buffers, known signatures intern to
		// the database's canonical strings, bloom hashes inline, and the
		// structs handed to the stage interfaces live on the session
		// (measured 0.0).
		{"sequential/default", false, false, defaultSpec, 0.5},
		// The f32 tier shares the zero-alloc hot path (measured 0.0).
		{"sequential/f32", false, false, f32Spec, 0.5},
		// The 4-level stack allocates the per-verdict evidence slice by
		// default — the caller retains it (measured 1.0)…
		{"sequential/4level", false, false, fourSpec, 1.5},
		// …and is allocation-free once the caller opts into the pooled
		// evidence buffer (measured 0.0).
		{"sequential/4level/reuse", false, true, fourSpec, 0.5},
		// Engine paths add a fraction of amortized submit/batch machinery
		// (measured 0.2 and 1.2).
		{"engine/default", true, false, defaultSpec, 1},
		{"engine/f32", true, false, f32Spec, 1},
		{"engine/4level", true, false, fourSpec, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var per float64
			if c.engine {
				per = engineAllocs(t, c.spec)
			} else {
				per = classifyAllocs(t, c.spec, c.reuse)
			}
			t.Logf("%s: %.2f allocs/package (gate %.0f)", c.name, per, c.ceiling)
			if per > c.ceiling {
				t.Errorf("%s allocates %.2f/package, gate is %.0f", c.name, per, c.ceiling)
			}
		})
	}
}
