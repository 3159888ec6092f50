package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Config assigns a concrete parallelism configuration to a nest: which
// alternative runs, the DoP extent of each of its stages, and the
// configurations of nested loops (keyed by nested nest name). This is the
// value mechanisms compute and the executive applies — the paper's
// "parallelism configuration" <DoP_outer, DoP_inner>.
//
// Configs cross process boundaries (administration endpoints, the JSONL
// observation log, persisted tuning results); the JSON tags are that wire
// format.
type Config struct {
	// Alt is the index of the chosen alternative.
	Alt int `json:"alt"`
	// Extents is the DoP extent per stage of the chosen alternative,
	// index-aligned with AltSpec.Stages.
	Extents []int `json:"extents"`
	// Children maps nested nest names to their configurations.
	Children map[string]*Config `json:"children,omitempty"`
}

// ParseConfig decodes a JSON configuration, e.g.
//
//	{"alt":0,"extents":[3],"children":{"video":{"alt":0,"extents":[1,6,1]}}}
//
// No normalization is applied; pass the result through Normalize (or
// Exec.SetConfig, which normalizes) before use.
func ParseConfig(data []byte) (*Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("core: config: %w", err)
	}
	return &c, nil
}

// DefaultConfig returns the configuration the executive starts from when no
// mechanism has spoken: alternative 0 with extent 1 everywhere.
func DefaultConfig(spec *NestSpec) *Config {
	cfg := &Config{Alt: 0}
	alt := spec.Alts[0]
	cfg.Extents = make([]int, len(alt.Stages))
	for i, st := range alt.Stages {
		cfg.Extents[i] = st.clampExtent(1)
		if st.Nest != nil {
			if cfg.Children == nil {
				cfg.Children = make(map[string]*Config)
			}
			cfg.Children[st.Nest.Name] = DefaultConfig(st.Nest)
		}
	}
	return cfg
}

// Clone returns a deep copy.
func (c *Config) Clone() *Config {
	if c == nil {
		return nil
	}
	out := &Config{Alt: c.Alt, Extents: append([]int(nil), c.Extents...)}
	if c.Children != nil {
		out.Children = make(map[string]*Config, len(c.Children))
		for k, v := range c.Children {
			out.Children[k] = v.Clone()
		}
	}
	return out
}

// Equal reports whether two configurations are identical.
func (c *Config) Equal(o *Config) bool {
	if c == nil || o == nil {
		return c == o
	}
	if c.Alt != o.Alt || len(c.Extents) != len(o.Extents) {
		return false
	}
	for i := range c.Extents {
		if c.Extents[i] != o.Extents[i] {
			return false
		}
	}
	if len(c.Children) != len(o.Children) {
		return false
	}
	for k, v := range c.Children {
		if !v.Equal(o.Children[k]) {
			return false
		}
	}
	return true
}

// Child returns the configuration for the named nested nest, or nil.
func (c *Config) Child(name string) *Config {
	if c == nil {
		return nil
	}
	return c.Children[name]
}

// SetChild installs cfg as the configuration for the named nested nest.
func (c *Config) SetChild(name string, cfg *Config) {
	if c.Children == nil {
		c.Children = make(map[string]*Config)
	}
	c.Children[name] = cfg
}

// Extent returns the extent of stage i, defaulting to 1 when out of range.
func (c *Config) Extent(i int) int {
	if c == nil || i < 0 || i >= len(c.Extents) {
		return 1
	}
	return c.Extents[i]
}

// Normalize reconciles the configuration with spec in place: clamps the
// alternative index, resizes and clamps extents per stage type and DoP
// bounds, and recursively normalizes (creating defaults where missing) the
// child configuration of every nested nest reachable under the chosen
// alternative. Unknown children are left untouched so a mechanism may keep
// state for currently unchosen alternatives.
func (c *Config) Normalize(spec *NestSpec) {
	if c.Alt < 0 {
		c.Alt = 0
	}
	if c.Alt >= len(spec.Alts) {
		c.Alt = len(spec.Alts) - 1
	}
	alt := spec.Alts[c.Alt]
	if len(c.Extents) != len(alt.Stages) {
		old := c.Extents
		c.Extents = make([]int, len(alt.Stages))
		copy(c.Extents, old)
	}
	for i, st := range alt.Stages {
		c.Extents[i] = st.clampExtent(c.Extents[i])
		if st.Nest != nil {
			child := c.Child(st.Nest.Name)
			if child == nil {
				child = DefaultConfig(st.Nest)
				c.SetChild(st.Nest.Name, child)
			}
			child.Normalize(st.Nest)
		}
	}
}

// Demand returns the peak number of hardware contexts the configuration can
// occupy when instantiated for spec: a leaf stage occupies its extent; a
// stage that delegates to a nested loop occupies extent × the nested
// demand, because each of its workers drives a private instance of the
// nested loop (and holds no context itself while waiting on it).
func Demand(spec *NestSpec, cfg *Config) int {
	if cfg == nil {
		cfg = DefaultConfig(spec)
	}
	alt := spec.Alt(cfg.Alt)
	total := 0
	for i, st := range alt.Stages {
		e := st.clampExtent(cfg.Extent(i))
		if st.Nest != nil {
			total += e * Demand(st.Nest, cfg.Child(st.Nest.Name))
		} else {
			total += e
		}
	}
	return total
}

// String renders the configuration compactly, e.g.
// "alt=pipeline extents=[1 6 1] {video: alt=fused extents=[1]}".
// It is spec-agnostic, so alternatives print by index.
func (c *Config) String() string {
	if c == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "alt=%d extents=%v", c.Alt, c.Extents)
	if len(c.Children) > 0 {
		names := make([]string, 0, len(c.Children))
		for k := range c.Children {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString(" {")
		for i, k := range names {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s: %s", k, c.Children[k])
		}
		b.WriteString("}")
	}
	return b.String()
}
