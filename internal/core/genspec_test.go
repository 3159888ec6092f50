package core

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

// genSpec builds a random valid spec tree from a seed: 1–3 alternatives per
// nest, 1–4 stages per alternative, nesting up to the given depth.
func genSpec(rng *rand.Rand, name string, depth int) *NestSpec {
	spec := &NestSpec{Name: name}
	nAlts := rng.Intn(3) + 1
	for a := 0; a < nAlts; a++ {
		alt := &AltSpec{
			Name: name + "-alt" + string(rune('a'+a)),
			Make: func(item any) (*AltInstance, error) { return nil, nil },
		}
		nStages := rng.Intn(4) + 1
		for s := 0; s < nStages; s++ {
			st := StageSpec{Name: name + "-s" + string(rune('0'+s))}
			if rng.Intn(2) == 1 {
				st.Type = PAR
				if rng.Intn(3) == 0 {
					st.MaxDoP = rng.Intn(8) + 1
					st.MinDoP = rng.Intn(st.MaxDoP) + 1
				}
			}
			if depth > 0 && rng.Intn(3) == 0 {
				st.Nest = genSpec(rng, name+"n"+string(rune('0'+s)), depth-1)
			}
			alt.Stages = append(alt.Stages, st)
		}
		spec.Alts = append(spec.Alts, alt)
	}
	return spec
}

// Property: every generated spec validates, its default config normalizes
// idempotently, and demand is positive and consistent under cloning.
func TestGeneratedSpecsValidateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := genSpec(rng, "g", 2)
		if err := spec.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		cfg := DefaultConfig(spec)
		cfg.Normalize(spec)
		once := cfg.Clone()
		cfg.Normalize(spec)
		if !cfg.Equal(once) {
			return false
		}
		d := Demand(spec, cfg)
		if d < 1 {
			return false
		}
		return Demand(spec, cfg.Clone()) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: normalizing a random (possibly insane) config against a random
// spec yields extents within every stage's bounds, at every level of the
// chosen alternatives.
func TestNormalizeBoundsProperty(t *testing.T) {
	checkBounds := func(spec *NestSpec, cfg *Config) bool {
		alt := spec.Alt(cfg.Alt)
		if len(cfg.Extents) != len(alt.Stages) {
			return false
		}
		for i, st := range alt.Stages {
			e := cfg.Extents[i]
			if e < 1 {
				return false
			}
			if st.Type == SEQ && e != 1 {
				return false
			}
			if st.MaxDoP > 0 && e > st.MaxDoP {
				return false
			}
		}
		return true
	}
	var walk func(spec *NestSpec, cfg *Config) bool
	walk = func(spec *NestSpec, cfg *Config) bool {
		if !checkBounds(spec, cfg) {
			return false
		}
		alt := spec.Alt(cfg.Alt)
		for i := range alt.Stages {
			if n := alt.Stages[i].Nest; n != nil {
				child := cfg.Child(n.Name)
				if child == nil || !walk(n, child) {
					return false
				}
			}
		}
		return true
	}
	f := func(seed int64, alt int8, junk []int8) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := genSpec(rng, "g", 2)
		cfg := &Config{Alt: int(alt)}
		for _, j := range junk {
			cfg.Extents = append(cfg.Extents, int(j))
		}
		cfg.Normalize(spec)
		return walk(spec, cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the JSON round trip preserves any normalized config of any
// generated spec.
func TestConfigJSONProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := genSpec(rng, "g", 2)
		cfg := DefaultConfig(spec)
		// Randomize extents then normalize.
		alt := spec.Alt(cfg.Alt)
		for i := range cfg.Extents {
			cfg.Extents[i] = rng.Intn(12)
		}
		_ = alt
		cfg.Normalize(spec)
		data, err := json.Marshal(cfg)
		if err != nil {
			return false
		}
		back, err := ParseConfig(data)
		if err != nil {
			return false
		}
		return back.Equal(cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
