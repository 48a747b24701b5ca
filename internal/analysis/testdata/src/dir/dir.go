// Package dir is the fixture for malformed //repro: directives; the test
// pins the expected "directive" pseudo-analyzer diagnostics by line.
package dir

//repro:allow detlint

func missingReason() {}

//repro:allow fmtlint the analyzer does not exist

func unknownAnalyzer() {}

//repro:frobnicate

func unknownDirective() {}

// wellFormed carries a valid directive; no diagnostics.
func wellFormed() {
	//repro:allow detlint fixture reason
	_ = 0
}
