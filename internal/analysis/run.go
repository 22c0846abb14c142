package analysis

import (
	"fmt"

	"dedupcr/internal/analysis/load"
)

// RunPackage applies every analyzer to one loaded package and returns the
// findings in reported order.
func RunPackage(pkg *load.Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	return diags, nil
}
