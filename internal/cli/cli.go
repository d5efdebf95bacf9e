// Package cli implements the interactive debugger REPL behind
// cmd/visualinux: the v-commands plus session management, decoupled from
// stdin/stdout so the command surface is unit-testable.
package cli

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/vclstdlib"
)

// HelpText describes the REPL commands.
const HelpText = `commands:
  vplot <figure-id>       plot a stdlib ULK figure (see 'figures')
  vplot file <path>       plot a ViewCL program from a file
  vplot case <name>       quickstart | maple | stackrot | dirtypipe
  vplot auto <type> <expr>  synthesize a naive program and plot it
  vctrl split <p> [h|v]   split a pane
  vctrl viewql <p> <src>  apply ViewQL to a pane (single line)
  vctrl select <p> <set>  lift a ViewQL set into a secondary pane
  vctrl focus k=v         search all panes (e.g. focus pid=100)
  vctrl expand <p> [set]  clear collapse attributes (the click-to-expand)
  vctrl layout            show the pane tree
  vctrl show <p> [dot]    render a pane
  vchat [@pane] <text>    natural-language customization; also answers
                          "why is pane N slow?", "which pane is slowest?"
                          and "what changed since the last stop?" from
                          retained span trees
  vtrace [pane]           show the span tree of a pane's last extraction
  figures                 list figure IDs
  save <path>             persist the pane/plot state for reuse
  load <path>             restore a saved session (fresh sessions only)
  quit`

// CaseStudies maps the `vplot case` names to their programs.
var CaseStudies = map[string]string{
	"quickstart": vclstdlib.QuickstartProgram,
	"maple":      vclstdlib.MapleTreeProgram,
	"stackrot":   vclstdlib.StackRotProgram,
	"dirtypipe":  vclstdlib.DirtyPipeProgram,
}

// Runner executes REPL commands against a session.
type Runner struct {
	Session *core.Session
	Kernel  *kernelsim.Kernel
	Out     io.Writer
	// ReadFile is swappable for tests; defaults to os.ReadFile.
	ReadFile  func(string) ([]byte, error)
	WriteFile func(string, []byte) error
}

// New builds a runner with OS-backed file access.
func New(session *core.Session, k *kernelsim.Kernel, out io.Writer) *Runner {
	return &Runner{
		Session: session, Kernel: k, Out: out,
		ReadFile:  os.ReadFile,
		WriteFile: func(path string, data []byte) error { return os.WriteFile(path, data, 0o644) },
	}
}

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.Out, format, args...)
}

// Exec runs one command line; it returns false when the session should
// end (quit/exit).
func (r *Runner) Exec(line string) bool {
	line = strings.TrimSpace(line)
	if line == "" {
		return true
	}
	fields := strings.Fields(line)
	switch fields[0] {
	case "quit", "exit":
		return false
	case "help":
		r.printf("%s\n", HelpText)
	case "figures":
		r.printf("%s\n", strings.Join(core.FigureIDs(), " "))
	case "vplot":
		r.vplot(fields)
	case "vctrl":
		out, err := r.Session.VCtrl(strings.TrimSpace(strings.TrimPrefix(line, "vctrl")))
		if err != nil {
			r.printf("error: %v\n", err)
			return true
		}
		r.printf("%s\n", out)
	case "vchat":
		r.vchat(strings.TrimSpace(strings.TrimPrefix(line, "vchat")))
	case "vtrace":
		r.vtrace(fields)
	case "save":
		if len(fields) < 2 {
			r.printf("usage: save <path>\n")
			return true
		}
		data, err := r.Session.Export()
		if err == nil {
			err = r.WriteFile(fields[1], data)
		}
		if err != nil {
			r.printf("error: %v\n", err)
		} else {
			r.printf("session saved to %s\n", fields[1])
		}
	case "load":
		if len(fields) < 2 {
			r.printf("usage: load <path>\n")
			return true
		}
		data, err := r.ReadFile(fields[1])
		if err == nil {
			err = r.Session.Import(data)
		}
		if err != nil {
			r.printf("error: %v\n", err)
		} else {
			out, _ := r.Session.VCtrl("layout")
			r.printf("%s", out)
		}
	default:
		r.printf("unknown command %q (try 'help')\n", fields[0])
	}
	return true
}

func (r *Runner) vplot(fields []string) {
	if len(fields) < 2 {
		r.printf("usage: vplot <figure-id> | vplot file <path> | vplot case <name> | vplot auto <type> <expr>\n")
		return
	}
	var err error
	switch fields[1] {
	case "file":
		if len(fields) < 3 {
			r.printf("usage: vplot file <path>\n")
			return
		}
		var data []byte
		data, err = r.ReadFile(fields[2])
		if err == nil {
			_, err = r.Session.VPlot(fields[2], string(data))
		}
	case "case":
		if len(fields) < 3 {
			r.printf("cases: quickstart maple stackrot dirtypipe\n")
			return
		}
		prog, ok := CaseStudies[fields[2]]
		if !ok {
			r.printf("unknown case; try: quickstart maple stackrot dirtypipe\n")
			return
		}
		_, err = r.Session.VPlot(fields[2], prog)
	case "auto":
		if len(fields) < 4 {
			r.printf("usage: vplot auto <type> <root-expr>\n")
			return
		}
		var prog string
		_, prog, err = r.Session.VPlotAuto(fields[2], strings.Join(fields[3:], " "))
		if err == nil {
			r.printf("synthesized ViewCL:\n%s", prog)
		}
	default:
		_, err = r.Session.VPlotFigure(fields[1])
	}
	if err != nil {
		r.printf("error: %v\n", err)
		return
	}
	out, _ := r.Session.VCtrl("layout")
	r.printf("%s", out)
}

// vtrace prints the span tree of an extraction: `vtrace` shows the most
// recent plot, `vtrace <pane>` a specific pane's. Requires the session to
// have been built with an observer.
func (r *Runner) vtrace(fields []string) {
	if r.Session.Obs == nil {
		r.printf("tracing is off: session has no observer\n")
		return
	}
	traces := r.Session.Obs.Traces
	if len(fields) > 1 {
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			r.printf("usage: vtrace [pane]\n")
			return
		}
		rec, ok := traces.Last(id)
		if !ok {
			r.printf("no trace for pane %d (only plots are traced)\n", id)
			return
		}
		r.printf("pane %d:\n%s", id, rec.Trace.FormatTree())
		return
	}
	rec, ok := traces.Latest()
	if !ok {
		r.printf("no extractions traced yet; vplot first\n")
		return
	}
	r.printf("pane %d:\n%s", rec.Pane, rec.Trace.FormatTree())
}

func (r *Runner) vchat(rest string) {
	pane := 1
	if strings.HasPrefix(rest, "@") {
		if _, err := fmt.Sscanf(rest, "@%d", &pane); err == nil {
			if i := strings.Index(rest, " "); i > 0 {
				rest = strings.TrimSpace(rest[i:])
			}
		}
	}
	kind, out, err := r.Session.VChatAnswer(pane, rest)
	if err != nil {
		r.printf("error: %v\n", err)
		return
	}
	if kind == core.AnswerDiagnosis {
		r.printf("%s", out)
		return
	}
	r.printf("synthesized ViewQL:\n%s", out)
}
