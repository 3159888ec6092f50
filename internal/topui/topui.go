// Package topui renders the dope-top terminal frame: the nest tree with
// per-stage gauges and sparkline extents, the mechanism decision log, and
// the tenant arbitration table.
//
// Frame is a pure function of (latest entry, metrics snapshot) — the single
// render path behind both dope-top modes. Live mode feeds it the /report
// entry and the /series snapshot of a running admin server; replay mode
// feeds it entries read from a recorded JSONL trace through a local
// Collector. Because every pixel derives from the replay.Entry shape, a
// recorded incident replays through the identical UI the operator watched
// live — the golden-frame test pins the two paths to byte equality.
package topui

import (
	"fmt"
	"sort"
	"strings"

	"dope/internal/core"
	"dope/internal/metrics"
	"dope/internal/replay"
	"dope/internal/stats"
)

// Opts shapes a frame.
type Opts struct {
	// SparkWidth is the sparkline width in cells (default 24).
	SparkWidth int
	// Decisions is how many decision-log tail rows to show (default 8).
	Decisions int
	// Title overrides the frame header's leading tag (default "dope-top").
	Title string
}

func (o Opts) withDefaults() Opts {
	if o.SparkWidth <= 0 {
		o.SparkWidth = 24
	}
	if o.Decisions <= 0 {
		o.Decisions = 8
	}
	if o.Title == "" {
		o.Title = "dope-top"
	}
	return o
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the last w points as block glyphs, scaled to the
// window's own min/max (a flat series renders mid-height).
func sparkline(pts []stats.Point, w int) string {
	if len(pts) == 0 || w <= 0 {
		return strings.Repeat(" ", w)
	}
	if len(pts) > w {
		pts = pts[len(pts)-w:]
	}
	lo, hi := pts[0].V, pts[0].V
	for _, p := range pts {
		if p.V < lo {
			lo = p.V
		}
		if p.V > hi {
			hi = p.V
		}
	}
	var b strings.Builder
	for i := 0; i < w-len(pts); i++ {
		b.WriteByte(' ')
	}
	for _, p := range pts {
		idx := len(sparkRunes) / 2
		if hi > lo {
			idx = int((p.V - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// Frame renders one screen. Either argument may be nil: a nil entry renders
// only collector-derived sections (tenant arbitration without a selected
// tenant's tree), a nil snapshot renders the tree without sparklines or the
// decision log.
func Frame(e *replay.Entry, snap *metrics.Snapshot, opts Opts) string {
	opts = opts.withDefaults()
	var b strings.Builder

	// Header.
	switch {
	case e != nil:
		fmt.Fprintf(&b, "%s  t=%.1fs", opts.Title, e.TimeSec)
		if e.Tenant != "" {
			fmt.Fprintf(&b, "  tenant=%s", e.Tenant)
		}
		fmt.Fprintf(&b, "  ctx %d/%d busy, %d blocked", e.BusyContexts, e.Contexts, e.BlockedAcquires)
		if e.Rejected > 0 {
			fmt.Fprintf(&b, ", %d rejected", e.Rejected)
		}
	case snap != nil:
		fmt.Fprintf(&b, "%s  t=%.1fs", opts.Title, snap.Now)
	default:
		b.WriteString(opts.Title)
	}
	if snap != nil {
		if w, ok := lastValue(snap, "power/watts"); ok {
			fmt.Fprintf(&b, "  power %.1fW", w)
		}
		if snap.Dropped > 0 {
			fmt.Fprintf(&b, "  [%d events dropped]", snap.Dropped)
		}
	}
	b.WriteByte('\n')

	// Nest tree.
	if e != nil && e.Root != nil {
		fmt.Fprintf(&b, "\n%-34s %3s %4s %8s %8s %6s %5s %5s  %s\n",
			"NEST/STAGE", "typ", "dop", "rate/s", "sojourn", "stall", "shed", "fail", "extent "+strings.Repeat("─", opts.SparkWidth-7))
		renderNest(&b, e.Root, 0, snap, opts)
	}

	// Tenant arbitration table.
	if snap != nil && len(snap.Tenants) > 0 {
		fmt.Fprintf(&b, "\n%-12s %-9s %5s %5s %7s %6s %6s %6s %7s  %s\n",
			"TENANT", "state", "quota", "used", "watts", "shed", "rej", "grant", "revoke", "quota "+strings.Repeat("─", opts.SparkWidth-6))
		for _, t := range snap.Tenants {
			spark := sparkline(snap.Series["tenant/"+t.Name+"/quota"], opts.SparkWidth)
			fmt.Fprintf(&b, "%-12s %-9s %5d %5d %7.1f %6d %6d %6d %7d  %s\n",
				t.Name, t.State, t.Quota, t.Used, t.Watts, t.Shed, t.Rejected,
				t.Grants, t.Revokes, spark)
		}
	}

	// Decision log tail.
	if snap != nil && len(snap.Events) > 0 {
		fmt.Fprintf(&b, "\nDECISIONS (last %d)\n", opts.Decisions)
		evs := snap.Events
		if len(evs) > opts.Decisions {
			evs = evs[len(evs)-opts.Decisions:]
		}
		for _, d := range evs {
			fmt.Fprintf(&b, "  %7.2fs  %-12s", d.T, d.Kind)
			if d.Nest != "" {
				fmt.Fprintf(&b, " %s", d.Nest)
			}
			if d.Stage != "" {
				fmt.Fprintf(&b, "/%s", d.Stage)
			}
			if d.From != d.To {
				fmt.Fprintf(&b, " %d→%d", d.From, d.To)
			}
			if d.Mechanism != "" {
				fmt.Fprintf(&b, " (%s)", d.Mechanism)
			}
			if d.Detail != "" {
				fmt.Fprintf(&b, "  %s", d.Detail)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func renderNest(b *strings.Builder, n *core.NestReport, depth int, snap *metrics.Snapshot, opts Opts) {
	if n == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s  [alt %s]\n", indent, n.Name, n.AltName)
	for _, st := range n.Stages {
		var spark string
		if snap != nil {
			spark = sparkline(snap.Series["stage/"+n.Path+"/"+st.Name+"/extent"], opts.SparkWidth)
		} else {
			spark = strings.Repeat(" ", opts.SparkWidth)
		}
		name := indent + "  " + st.Name
		fmt.Fprintf(b, "%-34s %3s %4d %8.1f %7.1fm %6d %5d %5d  %s\n",
			name, st.Type, st.Extent, st.Rate, st.QueueSojourn*1000,
			st.Stalls, st.Shed, st.Failures, spark)
	}
	if len(n.Children) > 0 {
		keys := make([]string, 0, len(n.Children))
		for k := range n.Children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			renderNest(b, n.Children[k], depth+1, snap, opts)
		}
	}
}

func lastValue(snap *metrics.Snapshot, name string) (float64, bool) {
	pts := snap.Series[name]
	if len(pts) == 0 {
		return 0, false
	}
	return pts[len(pts)-1].V, true
}

// Model is the stateful side of the render path: it owns a local Collector
// and the latest entry, so a stream of replay entries — from a recorded
// JSONL trace or from polling a live /report — renders exactly like a
// server-side /series-backed frame.
type Model struct {
	col  *metrics.Collector
	last *replay.Entry
	opts Opts
}

// NewModel returns a model holding window points per series.
func NewModel(window int, opts Opts) *Model {
	return &Model{col: metrics.NewCollector(window), opts: opts.withDefaults()}
}

// Ingest feeds one entry: the decoded report lands in the collector (series
// points plus synthesized reconfigure decisions) and the entry becomes the
// tree to render.
func (m *Model) Ingest(e *replay.Entry) {
	if e == nil {
		return
	}
	m.last = e
	m.col.ObserveReport(replay.Decode(e))
}

// Frame renders the current screen.
func (m *Model) Frame() string {
	return Frame(m.last, m.col.Snapshot(0), m.opts)
}

// Close releases the model's collector.
func (m *Model) Close() { m.col.Close() }
