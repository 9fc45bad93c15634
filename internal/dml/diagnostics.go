package dml

import (
	"fmt"
	"sort"
)

// Severity classifies a diagnostic. Errors mean the program is statically
// guaranteed to fail (or is malformed) and abort execution; warnings flag
// suspicious-but-runnable constructs and are collected without aborting.
type Severity int

const (
	// SevWarning marks lint findings that do not stop execution.
	SevWarning Severity = iota + 1
	// SevError marks defects that abort execution before evaluation.
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diagnostic codes emitted by the analyzer. Error codes fire only when the
// evaluator is statically guaranteed to reject the construct; warning codes
// flag legal-but-suspicious programs.
const (
	CodeUndefinedVar   = "undefined-var"   // read of a variable no path defines
	CodeDimMismatch    = "dim-mismatch"    // incompatible matrix dimensions
	CodeTypeMismatch   = "type-mismatch"   // scalar where matrix required, or vice versa
	CodeBadArg         = "bad-arg"         // statically invalid builtin argument or index
	CodeBadArity       = "bad-arity"       // wrong argument count / unknown function
	CodeUnusedVar      = "unused-var"      // assigned but never read
	CodeUnreachable    = "unreachable"     // branch dead under a constant condition
	CodeEmptyLoop      = "empty-loop"      // constant zero/negative trip count
	CodeShadowedVar    = "shadowed-var"    // loop variable shadows an existing binding
	CodeMaybeUndefined = "maybe-undefined" // defined on some but not all paths
)

// Diagnostic is one analyzer finding, anchored to a byte offset in the
// source. Use Format (or lineCol) to render the offset as line:col.
type Diagnostic struct {
	Pos      int
	Severity Severity
	Code     string
	Msg      string
}

// Format renders the diagnostic with a line:col prefix resolved against src.
// With no source text (programmatically built ASTs), the raw offset is shown.
func (d Diagnostic) Format(src string) string {
	return fmt.Sprintf("%s: %s[%s]: %s", posString(src, d.Pos), d.Severity, d.Code, d.Msg)
}

// lineCol converts a byte offset into 1-based line and column numbers.
// Offsets past the end of src clamp to its final position.
func lineCol(src string, pos int) (line, col int) {
	if pos > len(src) {
		pos = len(src)
	}
	line, col = 1, 1
	for i := 0; i < pos; i++ {
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// posString renders a byte offset as "line:col" against src, falling back to
// "offset N" when no source text is available.
func posString(src string, pos int) string {
	if src == "" {
		return fmt.Sprintf("offset %d", pos)
	}
	line, col := lineCol(src, pos)
	return fmt.Sprintf("%d:%d", line, col)
}

// Analysis is the result of running the static semantic analyzer: the
// collected diagnostics plus the final inferred shape environment.
type Analysis struct {
	// Diags holds every finding, sorted by source position.
	Diags []Diagnostic
	// Shapes is the abstract shape of each variable after the program.
	Shapes map[string]AbsShape

	src string
}

// HasErrors reports whether any diagnostic is error-severity.
func (a *Analysis) HasErrors() bool {
	for _, d := range a.Diags {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Errors returns the error-severity diagnostics.
func (a *Analysis) Errors() []Diagnostic { return a.filter(SevError) }

// Warnings returns the warning-severity diagnostics.
func (a *Analysis) Warnings() []Diagnostic { return a.filter(SevWarning) }

func (a *Analysis) filter(sev Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range a.Diags {
		if d.Severity == sev {
			out = append(out, d)
		}
	}
	return out
}

// sortDiags orders diagnostics by position, then severity (errors first),
// then code, for deterministic output.
func sortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		if diags[i].Severity != diags[j].Severity {
			return diags[i].Severity > diags[j].Severity
		}
		return diags[i].Code < diags[j].Code
	})
}
