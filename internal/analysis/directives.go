package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix introduces all analysis directives.
const directivePrefix = "//repro:"

// allowKey addresses one suppressed (file, line) pair.
type allowKey struct {
	file string
	line int
}

// parseDirectives scans every comment for //repro: directives, populating
// the package's suppression table. Malformed directives become diagnostics
// under the pseudo-analyzer "directive" — a suppression that silently failed
// to parse would otherwise look like a clean run.
func (p *Package) parseDirectives() {
	p.allows = make(map[string]map[allowKey]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, directivePrefix) {
					p.parseDirective(c)
				}
			}
		}
	}
}

// parseDirective handles one //repro:... comment.
func (p *Package) parseDirective(c *ast.Comment) {
	fields := strings.Fields(strings.TrimPrefix(c.Text, directivePrefix))
	pos := p.Fset.Position(c.Pos())
	bad := func(format string, args ...any) {
		p.badDirectives = append(p.badDirectives, Diagnostic{
			Pos: pos, Analyzer: "directive", Message: fmt.Sprintf(format, args...),
		})
	}
	if len(fields) == 0 {
		bad("empty //repro: directive")
		return
	}
	switch fields[0] {
	case "allow":
		if len(fields) < 2 {
			bad("//repro:allow needs an analyzer name and a reason")
			return
		}
		name := fields[1]
		if !analyzerNames()[name] {
			bad("//repro:allow names unknown analyzer %q", name)
			return
		}
		if len(fields) < 3 {
			bad("//repro:allow %s needs a reason (say why the site is safe)", name)
			return
		}
		if p.allows[name] == nil {
			p.allows[name] = make(map[allowKey]bool)
		}
		// The directive covers its own line, and — when it stands alone on
		// the line — the next line too, so it can sit above the flagged
		// statement without disturbing it.
		p.allows[name][allowKey{pos.Filename, pos.Line}] = true
		if !p.hasCodeBefore(pos) {
			p.allows[name][allowKey{pos.Filename, pos.Line + 1}] = true
		}
	default:
		bad("unknown directive //repro:%s", fields[0])
	}
}

// hasCodeBefore reports whether any non-whitespace source precedes the
// position on its line — i.e. the directive trails a statement rather than
// standing alone.
func (p *Package) hasCodeBefore(pos token.Position) bool {
	src, ok := p.src[pos.Filename]
	if !ok {
		return false
	}
	// Column is 1-based; Offset points at the comment's first byte.
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	return strings.TrimSpace(string(src[start:pos.Offset])) != ""
}

// allowed reports whether an //repro:allow directive for the analyzer
// covers the diagnostic's line.
func (p *Package) allowed(analyzer string, pos token.Position) bool {
	return p.allows[analyzer][allowKey{pos.Filename, pos.Line}]
}
