// Package scripts holds the DML programs the benchmark runs.
package scripts

import _ "embed"

// LogReg is the dml_script workload's program (see logreg.dml).
//
//go:embed logreg.dml
var LogReg string
