package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"visualinux/internal/vchat"
)

// This file wires the vchat diagnosis layer to a session: the
// steady-state bench baseline and the intent-routed VChatAnswer entry
// point the REPL and the HTTP server share.

// SetBaseline installs a figure→steady-state-milliseconds baseline table
// (keys as the bench writes them, e.g. "3-6"; pane figure names like
// "fig3-6" are normalized on lookup).
func (s *Session) SetBaseline(steadyMS map[string]float64) {
	s.baselineMu.Lock()
	defer s.baselineMu.Unlock()
	s.baseline = steadyMS
}

// LoadBaselineFile reads a perfbench result file (BENCH_4.json shape:
// {"rows":[{"figure":"3-6","steady_kgdb_ms":5.5,...},...]}) and installs
// its steady-state figures as the diagnosis baseline. Rows whose steady
// round was fully figure-reused (0 ms) are skipped — a zero baseline would
// make every ratio infinite.
func (s *Session) LoadBaselineFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var doc struct {
		Rows []struct {
			Figure   string  `json:"figure"`
			SteadyMS float64 `json:"steady_kgdb_ms"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	table := make(map[string]float64)
	for _, r := range doc.Rows {
		if r.SteadyMS > 0 {
			table[r.Figure] = r.SteadyMS
		}
	}
	if len(table) == 0 {
		return fmt.Errorf("baseline %s: no rows with a nonzero steady_kgdb_ms", path)
	}
	s.SetBaseline(table)
	return nil
}

// baselineFor looks a figure up in the installed baseline, tolerating the
// "fig" prefix pane names carry over bench row keys.
func (s *Session) baselineFor(figure string) (float64, bool) {
	s.baselineMu.RLock()
	defer s.baselineMu.RUnlock()
	if s.baseline == nil {
		return 0, false
	}
	if ms, ok := s.baseline[figure]; ok {
		return ms, true
	}
	ms, ok := s.baseline[strings.TrimPrefix(figure, "fig")]
	return ms, ok
}

// observations packages the session's retained data for the vchat
// diagnosis layer.
func (s *Session) observations() vchat.Observations {
	return vchat.Observations{
		Obs:      s.Obs,
		Baseline: s.baselineFor,
		Stream:   s.StreamHealth,
	}
}

// Diagnose answers "why is pane N slow?" from the pane's retained span
// trees (never from /debug/trace).
func (s *Session) Diagnose(paneID int) (*vchat.Diagnosis, error) {
	if s.Obs == nil {
		return nil, fmt.Errorf("diagnose: session is not observed")
	}
	return s.observations().Diagnose(paneID)
}

// DiagnoseSlowest diagnoses whichever pane's latest retained round was
// slowest.
func (s *Session) DiagnoseSlowest() (*vchat.Diagnosis, error) {
	if s.Obs == nil {
		return nil, fmt.Errorf("diagnose: session is not observed")
	}
	return s.observations().Slowest()
}

// DiagnoseChanges compares a pane's last two retained rounds.
func (s *Session) DiagnoseChanges(paneID int) (*vchat.ChangeReport, error) {
	if s.Obs == nil {
		return nil, fmt.Errorf("diagnose: session is not observed")
	}
	return s.observations().Changes(paneID)
}

// DiagnoseStream answers "why is my stream laggy?" from the fan-out
// broker's health snapshot and the retained fan-out round traces.
func (s *Session) DiagnoseStream() (*vchat.StreamReport, error) {
	return s.observations().StreamLag()
}

// VChat answer kinds.
const (
	AnswerViewQL    = "viewql"    // out is a synthesized ViewQL program (already applied)
	AnswerDiagnosis = "diagnosis" // out is rendered diagnosis text
)

// VChatAnswer is the intent-routed vchat entry point: visualization
// requests synthesize and apply ViewQL exactly like VChat; performance
// questions ("why is pane 3 slow?", "which pane is slowest?", "what
// changed since the last stop?") are answered from retained span trees.
// A pane named in the text overrides the addressed pane.
func (s *Session) VChatAnswer(paneID int, text string) (kind, out string, err error) {
	intent, named := vchat.Classify(text)
	target := paneID
	if named > 0 {
		target = named
	}
	if target == 0 && s.Obs != nil {
		latest, _ := s.Obs.Traces.Latest()
		target = latest.Pane
	}
	switch intent {
	case vchat.IntentDiagnosePane:
		s.log("vchat " + text)
		if target == 0 {
			return AnswerDiagnosis, "", fmt.Errorf("vchat: which pane? say e.g. \"why is pane 1 slow?\"")
		}
		d, err := s.Diagnose(target)
		if err != nil {
			return AnswerDiagnosis, "", err
		}
		return AnswerDiagnosis, d.Render(), nil
	case vchat.IntentSlowestPane:
		s.log("vchat " + text)
		d, err := s.DiagnoseSlowest()
		if err != nil {
			return AnswerDiagnosis, "", err
		}
		return AnswerDiagnosis, d.Render(), nil
	case vchat.IntentStreamLag:
		s.log("vchat " + text)
		r, err := s.DiagnoseStream()
		if err != nil {
			return AnswerDiagnosis, "", err
		}
		return AnswerDiagnosis, r.Render(), nil
	case vchat.IntentWhatChanged:
		s.log("vchat " + text)
		if target == 0 {
			return AnswerDiagnosis, "", fmt.Errorf("vchat: no retained rounds yet; vplot first")
		}
		r, err := s.DiagnoseChanges(target)
		if err != nil {
			return AnswerDiagnosis, "", err
		}
		return AnswerDiagnosis, r.Render(), nil
	}
	prog, err := s.VChat(paneID, text)
	return AnswerViewQL, prog, err
}
