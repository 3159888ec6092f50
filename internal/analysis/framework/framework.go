// Package framework is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API: an Analyzer couples a name and a Run
// function over a type-checked package (a Pass), and reports Diagnostics.
//
// The repository cannot vendor x/tools, so dope-vet's analyzers are written
// against this package instead. The shapes are kept deliberately identical
// to go/analysis (Analyzer.Name/Doc/Run, Pass.Fset/Files/Pkg/TypesInfo,
// Pass.Reportf) so the suite can be rebased onto the real framework by
// changing imports only.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in suppression
	// comments; lowercase, no spaces.
	Name string
	// Doc is the help text: first line is a one-sentence summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass is the interface between one Analyzer and one package: the syntax,
// the type information, the Report sink, and the fact store shared across
// packages.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic; installed by the driver.
	Report func(Diagnostic)

	// facts is the cross-package store, namespaced per analyzer; may be nil
	// when the driver runs without facts.
	facts *FactStore
}

// ExportObjectFact attaches fact (any JSON-serializable value) to obj under
// this analyzer's namespace, making it visible to later passes over
// packages that import obj's package. A nil store or unkeyable object is a
// no-op.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	if p.facts == nil {
		return
	}
	if err := p.facts.export(p.Analyzer.Name, obj, fact); err != nil {
		// A non-serializable fact is an analyzer bug; surface it loudly at
		// the first diagnostic position available.
		p.Report(Diagnostic{Pos: token.NoPos, Message: err.Error()})
	}
}

// ImportObjectFact decodes the fact attached to obj by this analyzer in an
// earlier pass into ptr and reports whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, ptr any) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.importInto(p.Analyzer.Name, obj, ptr)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a positioned, analyzer-attributed diagnostic, the driver's
// output unit.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks a finding silenced by a //dopevet:ignore comment;
	// only RunPackageFactsAll returns such findings (for reporting modes
	// that show blessed sites), the plain runners drop them.
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// RunPackageFacts applies every analyzer to one type-checked package and
// returns the surviving findings: suppression comments (see suppress.go) are
// honored, and duplicate findings at the same position are dropped. Analyzer
// run errors are returned as an error after all analyzers executed.
// Analyzers import facts that earlier passes (over this package's
// dependencies) exported into facts, and export their own for packages
// analyzed later. A nil store degrades to intra-package analysis.
func RunPackageFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, facts *FactStore) ([]Finding, error) {
	all, err := RunPackageFactsAll(fset, files, pkg, info, analyzers, facts)
	findings := all[:0]
	for _, f := range all {
		if !f.Suppressed {
			findings = append(findings, f)
		}
	}
	return findings, err
}

// RunPackageFactsAll is RunPackageFacts without the suppression filter:
// findings silenced by //dopevet:ignore comments are returned too, marked
// Suppressed, so reporting modes (dope-vet -json) can show blessed sites
// alongside live ones.
func RunPackageFactsAll(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, facts *FactStore) ([]Finding, error) {
	sup := collectSuppressions(fset, files)
	var findings []Finding
	seen := make(map[string]bool)
	var firstErr error
	for _, a := range analyzers {
		a := a
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			facts:     facts,
		}
		pass.Report = func(d Diagnostic) {
			pos := fset.Position(d.Pos)
			key := fmt.Sprintf("%s|%s|%s", a.Name, pos, d.Message)
			if seen[key] {
				return
			}
			seen[key] = true
			findings = append(findings, Finding{
				Analyzer:   a.Name,
				Pos:        pos,
				Message:    d.Message,
				Suppressed: sup.suppressed(a.Name, pos),
			})
		}
		if err := a.Run(pass); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, firstErr
}

// ExportFacts runs every analyzer over the package purely for its fact
// exports: diagnostics are discarded. Drivers use this on dependency
// packages so that facts about their functions are available when the
// package under analysis is checked.
func ExportFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, facts *FactStore) error {
	var firstErr error
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			facts:     facts,
			Report:    func(Diagnostic) {},
		}
		if err := a.Run(pass); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return firstErr
}
