// Package core wires the Visualinux components into a debugging session: a
// debug target, the ViewCL interpreter, the pane tree, and the three
// v-commands of the paper (§4) — vplot (extract an object graph), vctrl
// (panes + ViewQL), vchat (natural language). The CLI, the HTTP server, the
// examples and the benchmark harness all drive this facade.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"visualinux/internal/expr"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/panes"
	"visualinux/internal/render"
	"visualinux/internal/stream"
	"visualinux/internal/target"
	"visualinux/internal/vchat"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
	"visualinux/internal/viewql"
)

// Session is one interactive Visualinux debugging session.
type Session struct {
	Target target.Target
	Env    *expr.Env
	Interp *viewcl.Interp
	Tree   *panes.Tree
	// History records every executed v-command, supporting the paper's
	// session persistence story.
	History []string

	// Obs, when set, makes every VPlot produce a span tree (retained in
	// Obs.Traces, queryable per pane) and bump the shared metrics registry.
	// Set it via EnableObs / ObservedSessionOver.
	Obs *obs.Observer

	// StreamHealth, when set by the serving layer, snapshots the stream
	// broker's per-client state — the source the vchat stream-lag
	// diagnosis answers from. Nil outside a serving process.
	StreamHealth func() *stream.Health

	programs     map[int]string // pane ID -> ViewCL source (primary panes)
	secondarySrc map[int]int    // secondary pane ID -> source pane ID

	baselineMu sync.RWMutex
	baseline   map[string]float64 // figure -> steady-state ms (e.g. BENCH_4.json)
}

// NewSession creates a session over an arbitrary target whose expression
// environment has already been configured (helpers registered).
func NewSession(t target.Target, env *expr.Env) *Session {
	in := viewcl.New(env)
	return &Session{
		Target: t, Env: env, Interp: in,
		programs:     make(map[int]string),
		secondarySrc: make(map[int]int),
	}
}

// EnableObs attaches an observer: extractions from now on are traced and
// measured. Safe to call once, right after session construction.
func (s *Session) EnableObs(o *obs.Observer) *Session {
	s.Obs = o
	s.Interp.Obs = o
	return s
}

// NewKernelSession builds a simulated kernel and a fully wired session over
// it — the one-call analogue of "attach GDB to the QEMU guest".
func NewKernelSession(opts kernelsim.Options) (*Session, *kernelsim.Kernel) {
	k := kernelsim.Build(opts)
	s := SessionOver(k, k.Target())
	return s, k
}

// The kernelsim flag vocabularies never change at runtime, so every session
// shares one immutable conversion instead of rebuilding the slices per
// session (the server creates a session per figure per client). The shared
// slices are never mutated; each session's Flags map stays private, so tests
// overriding an entry only affect their own interpreter.
var (
	flagSetsOnce sync.Once
	sharedFlags  map[string][]viewcl.Flag
)

func sharedFlagSets() map[string][]viewcl.Flag {
	flagSetsOnce.Do(func() {
		sharedFlags = make(map[string][]viewcl.Flag)
		for id, set := range kernelsim.FlagSets() {
			fl := make([]viewcl.Flag, 0, len(set))
			for _, b := range set {
				fl = append(fl, viewcl.Flag{Mask: b.Mask, Name: b.Name})
			}
			sharedFlags[id] = fl
		}
	})
	return sharedFlags
}

// SessionOver wires a session over any target view of a built kernel
// (fast or latency-wrapped), sharing the kernel's type registry.
func SessionOver(k *kernelsim.Kernel, t target.Target) *Session {
	env := expr.NewEnv(t)
	kernelsim.RegisterHelpers(env)
	s := NewSession(t, env)
	for id, fl := range sharedFlagSets() {
		s.Interp.Flags[id] = fl
	}
	return s
}

// ObservedSessionOver wires a session over base with the full observability
// chain: base → Instrumented (per-transaction spans + link counters) →
// Snapshot (page cache, hit/miss counters) → session, all reporting into o.
// The snapshot is returned so callers can Invalidate between target runs.
func ObservedSessionOver(k *kernelsim.Kernel, base target.Target, o *obs.Observer, tags ...obs.Tag) (*Session, *target.Snapshot) {
	inst := target.Instrument(base, o, tags...)
	snap := target.NewSnapshot(inst).Instrument(o)
	s := SessionOver(k, snap)
	s.EnableObs(o)
	return s, snap
}

// NewObservedKernelSession builds a simulated kernel plus an observed
// session over its raw target — the zero-config entry point for the server
// and CLI binaries.
func NewObservedKernelSession(opts kernelsim.Options, o *obs.Observer) (*Session, *kernelsim.Kernel, *target.Snapshot) {
	k := kernelsim.Build(opts)
	s, snap := ObservedSessionOver(k, k.Target(), o)
	return s, k, snap
}

func (s *Session) log(cmd string) { s.History = append(s.History, cmd) }

// poolKey is the session's scheduling identity on the DefaultPool: all of a
// session's extraction work queues under one key, so the pool's round-robin
// across keys is round-robin across sessions.
func (s *Session) poolKey() string { return fmt.Sprintf("session:%p", s) }

// VPlot evaluates a ViewCL program and displays the resulting object graph
// in a new primary pane (the first plot creates the pane tree; subsequent
// plots split the first pane).
func (s *Session) VPlot(name, program string) (*panes.Pane, error) {
	s.log("vplot " + name)
	res, err := s.Interp.RunSource(name, program)
	if err != nil {
		return nil, fmt.Errorf("vplot %s: %w", name, err)
	}
	return s.attachPane(name, program, res)
}

// attachPane puts an extracted graph into the pane tree and records its
// observability artifacts. Extraction and attachment are split so that
// ExtractFiguresInto can run extractions concurrently and attach the
// results one at a time.
func (s *Session) attachPane(name, program string, res *viewcl.Result) (*panes.Pane, error) {
	var pane *panes.Pane
	if s.Tree == nil {
		tree, p := panes.NewTree(name, res.Graph)
		s.Tree = tree
		pane = p
	} else {
		p, err := s.Tree.Split(1, panes.Horizontal, name, res.Graph)
		if err != nil {
			return nil, err
		}
		pane = p
	}
	s.programs[pane.ID] = program
	s.recordExtraction(pane.ID, name, res)
	return pane, nil
}

// recordExtraction files the extraction's trace under its pane ID in the
// trace store and feeds the duration into the metrics registry.
func (s *Session) recordExtraction(paneID int, name string, res *viewcl.Result) {
	if s.Obs == nil || res == nil {
		return
	}
	dur := time.Duration(res.Graph.Stats.DurationNS)
	s.Obs.ObserveExtraction(name, dur)
	s.Obs.Traces.Record(paneID, name, float64(dur.Nanoseconds())/1e6, res.Trace)
}

// VPlotAuto synthesizes a naive ViewCL program for a type + root expression
// and plots it (the paper's "vplot ... can also synthesize naive ViewCL
// code for trivial debugging objectives"). It returns the pane and the
// generated program so the user can refine it.
func (s *Session) VPlotAuto(typeName, rootExpr string) (*panes.Pane, string, error) {
	prog, err := viewcl.SynthesizeProgram(s.Env.Types(), typeName, rootExpr)
	if err != nil {
		return nil, "", err
	}
	p, err := s.VPlot("auto:"+typeName, prog)
	return p, prog, err
}

// VPlotFigure plots a named Table 2 figure from the stdlib.
func (s *Session) VPlotFigure(id string) (*panes.Pane, error) {
	fig, ok := vclstdlib.FigureByID(id)
	if !ok {
		return nil, fmt.Errorf("vplot: unknown figure %q (try one of %s)", id, strings.Join(FigureIDs(), ", "))
	}
	return s.VPlot("fig"+fig.ID, fig.Program)
}

// FigureIDs lists the stdlib figure identifiers.
func FigureIDs() []string {
	var ids []string
	for _, f := range vclstdlib.Figures() {
		ids = append(ids, f.ID)
	}
	sort.Strings(ids)
	return ids
}

// VCtrl executes a pane-control command:
//
//	split <pane> [h|v]          duplicate a pane's graph into a new pane
//	viewql <pane> <program>     apply ViewQL to a pane
//	select <pane> <set> <title> lift a named ViewQL set into a secondary pane
//	focus <member>=<value>      cross-pane search (paper Fig 2)
//	expand <pane> [set]         clear collapse attributes (click-to-expand)
//	layout                      show the pane tree
//	show <pane> [text|dot]      render a pane
func (s *Session) VCtrl(cmd string) (string, error) {
	s.log("vctrl " + cmd)
	if s.Tree == nil {
		return "", fmt.Errorf("vctrl: no panes yet; vplot first")
	}
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return "", fmt.Errorf("vctrl: empty command")
	}
	switch fields[0] {
	case "split":
		if len(fields) < 2 {
			return "", fmt.Errorf("vctrl: split <pane> [h|v]")
		}
		id, err := paneArg(fields[1])
		if err != nil {
			return "", err
		}
		src, ok := s.Tree.Pane(id)
		if !ok {
			return "", fmt.Errorf("vctrl: no pane %d", id)
		}
		o := panes.Horizontal
		if len(fields) > 2 && fields[2] == "v" {
			o = panes.Vertical
		}
		p, err := s.Tree.Split(id, o, src.Title+"'", src.Graph)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("pane %d created", p.ID), nil
	case "viewql":
		if len(fields) < 3 {
			return "", fmt.Errorf("vctrl: viewql <pane> <program>")
		}
		id, err := paneArg(fields[1])
		if err != nil {
			return "", err
		}
		prog := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(cmd, fields[0]), " "+fields[1]))
		if err := s.Tree.Refine(id, prog); err != nil {
			return "", err
		}
		return "ok", nil
	case "select":
		if len(fields) < 3 {
			return "", fmt.Errorf("vctrl: select <pane> <set> [title]")
		}
		id, err := paneArg(fields[1])
		if err != nil {
			return "", err
		}
		p, ok := s.Tree.Pane(id)
		if !ok {
			return "", fmt.Errorf("vctrl: no pane %d", id)
		}
		refs := p.Engine.Set(fields[2])
		if refs == nil {
			return "", fmt.Errorf("vctrl: pane %d has no set %q", id, fields[2])
		}
		title := fields[2]
		if len(fields) > 3 {
			title = strings.Join(fields[3:], " ")
		}
		sp, err := s.Tree.SelectInto(id, refs, title)
		if err != nil {
			return "", err
		}
		s.secondarySrc[sp.ID] = id
		return fmt.Sprintf("secondary pane %d created (%d objects)", sp.ID, len(sp.Selection)), nil
	case "focus":
		if len(fields) < 2 || !strings.Contains(fields[1], "=") {
			return "", fmt.Errorf("vctrl: focus <member>=<value>")
		}
		kv := strings.SplitN(fields[1], "=", 2)
		hits := s.focus(kv[0], kv[1])
		if len(hits) == 0 {
			return "no matches", nil
		}
		var sb strings.Builder
		for _, h := range hits {
			fmt.Fprintf(&sb, "pane %d: %s\n", h.PaneID, h.BoxID)
		}
		return sb.String(), nil
	case "expand":
		// The CLI stand-in for clicking a collapsed box's button (paper
		// §4.2: "clicking this button will remove the collapsed
		// attribute"): clear collapse on a named set, or everywhere.
		if len(fields) < 2 {
			return "", fmt.Errorf("vctrl: expand <pane> [set]")
		}
		id, err := paneArg(fields[1])
		if err != nil {
			return "", err
		}
		p, ok := s.Tree.Pane(id)
		if !ok {
			return "", fmt.Errorf("vctrl: no pane %d", id)
		}
		n := 0
		if len(fields) > 2 {
			refs := p.Engine.Set(fields[2])
			if refs == nil {
				return "", fmt.Errorf("vctrl: pane %d has no set %q", id, fields[2])
			}
			for _, r := range refs {
				if b, ok := p.Graph.Get(r.BoxID); ok && r.Member == "" && b.Collapsed() {
					b.SetAttr(graph.AttrCollapsed, "false")
					n++
				}
			}
		} else {
			for _, b := range p.Graph.All() {
				if b.Collapsed() {
					b.SetAttr(graph.AttrCollapsed, "false")
					n++
				}
				for _, vn := range b.ViewSeq {
					v := b.Views[vn]
					for i := range v.Items {
						if v.Items[i].Collapsed() {
							v.Items[i].SetAttr(graph.AttrCollapsed, "false")
							n++
						}
					}
				}
			}
		}
		if n > 0 {
			s.Tree.BumpEpoch()
		}
		return fmt.Sprintf("%d boxes expanded", n), nil
	case "layout":
		return s.Tree.Layout(), nil
	case "show":
		if len(fields) < 2 {
			return "", fmt.Errorf("vctrl: show <pane> [text|dot]")
		}
		id, err := paneArg(fields[1])
		if err != nil {
			return "", err
		}
		p, ok := s.Tree.Pane(id)
		if !ok {
			return "", fmt.Errorf("vctrl: no pane %d", id)
		}
		if len(fields) > 2 && fields[2] == "dot" {
			return render.DOT(p.Graph), nil
		}
		return render.Text(p.Graph), nil
	}
	return "", fmt.Errorf("vctrl: unknown subcommand %q", fields[0])
}

func (s *Session) focus(member, value string) []panes.FocusHit {
	// Numeric values match raw scalars; otherwise compare rendered text.
	var raw uint64
	byRaw := false
	if v, err := parseUint(value); err == nil {
		raw, byRaw = v, true
	}
	if member == "addr" && byRaw {
		return s.Tree.FocusAddr(raw)
	}
	hits := s.Tree.FocusMember(member, value, raw, byRaw)
	if len(hits) == 0 && byRaw {
		// fall back to text comparison ("comm=107"? unlikely but cheap)
		hits = s.Tree.FocusMember(member, value, 0, false)
	}
	return hits
}

func parseUint(s string) (uint64, error) {
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") {
		_, err = fmt.Sscanf(s, "0x%x", &v)
	} else {
		_, err = fmt.Sscanf(s, "%d", &v)
	}
	return v, err
}

func paneArg(s string) (int, error) {
	id, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("vctrl: bad pane id %q", s)
	}
	return id, nil
}

// VChat converts a natural-language request into ViewQL for the given pane,
// applies it, and returns the synthesized program (so the user sees what
// ran, like the paper's LLM flow).
func (s *Session) VChat(paneID int, text string) (string, error) {
	s.log("vchat " + text)
	if s.Tree == nil {
		return "", fmt.Errorf("vchat: no panes yet; vplot first")
	}
	p, ok := s.Tree.Pane(paneID)
	if !ok {
		return "", fmt.Errorf("vchat: no pane %d", paneID)
	}
	prog, err := vchat.Synthesize(p.Graph, text)
	if err != nil {
		return "", err
	}
	if err := p.Engine.Apply(prog); err != nil {
		return prog, fmt.Errorf("vchat: synthesized program failed: %w", err)
	}
	s.Tree.BumpEpoch()
	return prog, nil
}

// Graphs returns the graphs of all panes (for the HTTP server).
func (s *Session) Graphs() map[int]*graph.Graph {
	out := make(map[int]*graph.Graph)
	if s.Tree == nil {
		return out
	}
	for _, p := range s.Tree.Panes() {
		out[p.ID] = p.Graph
	}
	return out
}

// ApplyViewQL applies a ViewQL program directly to a pane (programmatic
// convenience mirroring `vctrl viewql`).
func (s *Session) ApplyViewQL(paneID int, program string) error {
	if s.Tree == nil {
		return fmt.Errorf("no panes")
	}
	return s.Tree.Refine(paneID, program)
}

// Engine returns a pane's ViewQL engine.
func (s *Session) Engine(paneID int) (*viewql.Engine, bool) {
	if s.Tree == nil {
		return nil, false
	}
	p, ok := s.Tree.Pane(paneID)
	if !ok {
		return nil, false
	}
	return p.Engine, true
}
