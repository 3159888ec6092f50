// Package replay records the executive's monitoring snapshots to a JSONL
// log and replays them offline against any mechanism. This is tooling for
// the paper's third agent, the mechanism developer (§5): capture one run
// of an application, then iterate on a mechanism's logic against the
// recorded observations without re-running the application at all.
//
// A recorded Report keeps everything a mechanism consumes — the stage
// observations, the configuration, the platform features it read — plus
// enough of the spec structure (names, types, DoP bounds, alternatives) to
// reconstruct a structural NestSpec on load. Functors are not (and cannot
// be) serialized; replayed specs use placeholder factories and are only
// suitable for driving mechanisms, never for execution.
package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"dope/internal/core"
	"dope/internal/platform"
)

// SpecRecord is the serializable structure of a NestSpec.
type SpecRecord struct {
	Name string      `json:"name"`
	Alts []AltRecord `json:"alts"`
}

// AltRecord is the serializable structure of one alternative.
type AltRecord struct {
	Name   string        `json:"name"`
	Stages []StageRecord `json:"stages"`
}

// StageRecord is the serializable structure of one stage.
type StageRecord struct {
	Name   string      `json:"name"`
	Par    bool        `json:"par"`
	MinDoP int         `json:"minDoP,omitempty"`
	MaxDoP int         `json:"maxDoP,omitempty"`
	Nest   *SpecRecord `json:"nest,omitempty"`
}

// Entry is one recorded control-tick snapshot: the envelope around the core
// observation schema. Config and Root are core's own types (their JSON tags
// are the wire format); the envelope holds only what is not a core value as
// recorded — uptime as float seconds, the platform features sampled to
// numbers, and the spec's structure without its functors.
type Entry struct {
	// TimeSec is the executive uptime at the snapshot, in seconds.
	TimeSec float64 `json:"t"`
	// Tenant is the executive's identity in a multi-tenant process; "" when
	// single-tenant.
	Tenant string `json:"tenant,omitempty"`
	// Contexts/BusyContexts/BlockedAcquires mirror core.Report.
	Contexts        int `json:"contexts"`
	BusyContexts    int `json:"busy"`
	BlockedAcquires int `json:"blocked"`
	// Rejected mirrors core.Report.Rejected: admissions refused before any
	// stage queue saw the work.
	Rejected uint64 `json:"rejected,omitempty"`
	// Features holds the sampled platform features by name.
	Features map[string]float64 `json:"features,omitempty"`
	// Spec is the structural spec tree (recorded once per entry for
	// self-containedness; logs compress well).
	Spec *SpecRecord `json:"spec"`
	// Config is the active configuration.
	Config *core.Config `json:"config"`
	// Root is the observation tree. Its Spec pointers are not serialized;
	// Decode links them to the structural spec rebuilt from Spec.
	Root *core.NestReport `json:"root"`
}

// --- encoding ---------------------------------------------------------------

func encodeSpec(s *core.NestSpec) *SpecRecord {
	if s == nil {
		return nil
	}
	out := &SpecRecord{Name: s.Name}
	for _, alt := range s.Alts {
		ar := AltRecord{Name: alt.Name}
		for i := range alt.Stages {
			st := &alt.Stages[i]
			ar.Stages = append(ar.Stages, StageRecord{
				Name: st.Name, Par: st.Type == core.PAR,
				MinDoP: st.MinDoP, MaxDoP: st.MaxDoP,
				Nest: encodeSpec(st.Nest),
			})
		}
		out.Alts = append(out.Alts, ar)
	}
	return out
}

// Encode wraps a live report in a serializable entry. Feature values are
// sampled now, through the registered callbacks; Config and Root are shared
// with r, not copied, so encode before handing r to anything that edits it.
func Encode(r *core.Report) *Entry {
	e := &Entry{
		TimeSec:         r.Time.Seconds(),
		Tenant:          r.Tenant,
		Contexts:        r.Contexts,
		BusyContexts:    r.BusyContexts,
		BlockedAcquires: r.BlockedAcquires,
		Rejected:        r.Rejected,
		Spec:            encodeSpec(rootSpec(r)),
		Config:          r.Config,
		Root:            r.Root,
	}
	if r.Features != nil {
		for _, name := range r.Features.Names() {
			if v, err := r.Features.Value(name); err == nil {
				if e.Features == nil {
					e.Features = map[string]float64{}
				}
				e.Features[name] = v
			}
		}
	}
	return e
}

func rootSpec(r *core.Report) *core.NestSpec {
	if r.Root == nil {
		return nil
	}
	return r.Root.Spec
}

// --- decoding ---------------------------------------------------------------

// noopMake stands in for the unserializable functor factories.
func noopMake(item any) (*core.AltInstance, error) { return nil, nil }

func decodeSpec(s *SpecRecord) *core.NestSpec {
	if s == nil {
		return nil
	}
	out := &core.NestSpec{Name: s.Name}
	for _, ar := range s.Alts {
		alt := &core.AltSpec{Name: ar.Name, Make: noopMake}
		for _, sr := range ar.Stages {
			t := core.SEQ
			if sr.Par {
				t = core.PAR
			}
			alt.Stages = append(alt.Stages, core.StageSpec{
				Name: sr.Name, Type: t, MinDoP: sr.MinDoP, MaxDoP: sr.MaxDoP,
				Nest: decodeSpec(sr.Nest),
			})
		}
		out.Alts = append(out.Alts, alt)
	}
	return out
}

// linkSpec returns a copy of the observation tree whose nodes point at their
// nests in the structural spec (children matched by nest name). Stage rows
// are shared with n; only the nodes are copied, so the entry stays as read.
func linkSpec(n *core.NestReport, spec *core.NestSpec) *core.NestReport {
	if n == nil {
		return nil
	}
	out := *n
	out.Spec = spec
	if n.Children != nil {
		out.Children = make(map[string]*core.NestReport, len(n.Children))
		for k, v := range n.Children {
			var childSpec *core.NestSpec
			if spec != nil {
				childSpec = findChild(spec, k)
			}
			out.Children[k] = linkSpec(v, childSpec)
		}
	}
	return &out
}

func findChild(spec *core.NestSpec, name string) *core.NestSpec {
	for _, alt := range spec.Alts {
		for i := range alt.Stages {
			if n := alt.Stages[i].Nest; n != nil && n.Name == name {
				return n
			}
		}
	}
	return nil
}

// Decode reconstructs a core.Report a mechanism can consume. The spec tree
// is structural only (placeholder factories); Features answers exactly the
// recorded values; Config is a copy the mechanism may edit.
func Decode(e *Entry) *core.Report {
	spec := decodeSpec(e.Spec)
	features := platform.NewFeatures()
	for name, v := range e.Features {
		v := v
		features.Register(name, func() float64 { return v })
	}
	return &core.Report{
		Time:            time.Duration(e.TimeSec * float64(time.Second)),
		Tenant:          e.Tenant,
		Contexts:        e.Contexts,
		BusyContexts:    e.BusyContexts,
		BlockedAcquires: e.BlockedAcquires,
		Rejected:        e.Rejected,
		Features:        features,
		Config:          e.Config.Clone(),
		Root:            linkSpec(e.Root, spec),
	}
}

// --- log I/O ----------------------------------------------------------------

// Recorder appends entries to a JSONL stream. Safe for concurrent use.
type Recorder struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int
}

// NewRecorder wraps w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{enc: json.NewEncoder(w)}
}

// Record samples and appends one snapshot.
func (r *Recorder) Record(rep *core.Report) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.enc.Encode(Encode(rep)); err != nil {
		return fmt.Errorf("replay: record: %w", err)
	}
	r.n++
	return nil
}

// Count returns how many entries were recorded.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// ReadLog parses a JSONL log into entries.
//
// A recorder killed mid-write (SIGKILL, OOM, power loss) leaves one
// truncated, newline-less line at the tail of the file; ReadLog drops that
// tail and returns the entries before it, so an interrupted recording
// still replays. A malformed line that IS newline-terminated — anywhere,
// including last — is real corruption and stays an error.
func ReadLog(rd io.Reader) ([]*Entry, error) {
	br := bufio.NewReaderSize(rd, 1<<16)
	var out []*Entry
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("replay: %w", err)
		}
		terminated := err == nil
		if b := bytes.TrimSuffix(raw, []byte("\n")); len(bytes.TrimSpace(b)) > 0 {
			line++
			var e Entry
			if uerr := json.Unmarshal(b, &e); uerr != nil {
				if !terminated {
					return out, nil // truncated tail of an interrupted recording
				}
				return nil, fmt.Errorf("replay: line %d: %w", line, uerr)
			}
			out = append(out, &e)
		}
		if err == io.EOF {
			return out, nil
		}
	}
}

// Decision is one mechanism output during a replay.
type Decision struct {
	// Index and TimeSec locate the triggering entry.
	Index   int
	TimeSec float64
	// Config is the mechanism's (normalized) proposal; nil means "keep".
	Config *core.Config
}

// Replay feeds every entry to the mechanism in order and collects its
// non-nil decisions, normalizing each against the recorded spec — an
// offline dry-run of "what would this mechanism have done".
func Replay(entries []*Entry, m core.Mechanism) []Decision {
	var out []Decision
	for i, e := range entries {
		rep := Decode(e)
		cfg := m.Reconfigure(rep)
		if cfg == nil {
			continue
		}
		if rep.Root != nil && rep.Root.Spec != nil {
			cfg.Normalize(rep.Root.Spec)
		}
		out = append(out, Decision{Index: i, TimeSec: e.TimeSec, Config: cfg})
	}
	return out
}
