package lint

import (
	"strconv"
	"strings"
)

// cryptoPackages are the package-path suffixes where every random draw
// must come from crypto/rand (directly or via internal/sampling's
// PRF-seeded samplers). math/rand in any of these is a key- or
// noise-generation bug waiting to happen.
var cryptoPackages = []string{
	"internal/ring",
	"internal/rlwe",
	"internal/bfv",
	"internal/ckks",
	"internal/sampling",
	"internal/params",
	"internal/rotred",
}

// InsecureRand forbids importing math/rand (and math/rand/v2) from the
// cryptographic packages. Test files are exempt: deterministic PRNGs
// are fine for building fixtures, never for sampling secrets or noise.
var InsecureRand = &Analyzer{
	Name: "insecurerand",
	Doc:  "forbids math/rand in cryptographic packages (use crypto/rand or internal/sampling)",
	Run:  runInsecureRand,
}

func runInsecureRand(pass *Pass) error {
	inCrypto := false
	for _, suffix := range cryptoPackages {
		if pkgPathHasSuffix(pass.Pkg.Path(), suffix) {
			inCrypto = true
			break
		}
	}
	if !inCrypto {
		return nil
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"%s imported in cryptographic package %s; use crypto/rand or internal/sampling", path, pass.Pkg.Path())
			}
		}
	}
	return nil
}
