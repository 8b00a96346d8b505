package analyzers

import (
	"tokenmagic/internal/analysis"
	"tokenmagic/internal/analysis/dataflow"
)

// Cttime enforces the constant-time discipline on the ring-signature hot
// path. Values derived from //tmlint:secret (the private scalar, signing
// nonces) must never influence timing: no flow into branch/loop/switch
// conditions, slice/array/map indexing, variable-width big.Int encoders
// (Bytes, BitLen, Text, …), or functions annotated //tmlint:vartime (the
// verify-only multiplication kernels, which are entitled to operate on
// public inputs only). Flows are tracked flow-sensitively across module-local calls via
// per-function summaries, so passing a secret to a helper that branches on
// it is reported at the call site.
var Cttime = &analysis.Analyzer{
	Name: "cttime",
	Doc: "secret-derived values (//tmlint:secret) must not reach branches, " +
		"indexing, variable-width big.Int methods or //tmlint:vartime calls",
	Scope: []string{
		"tokenmagic/internal/ringsig",
	},
	Run: runCttime,
}

func runCttime(pass *analysis.Pass) error {
	prog, err := dataflow.Get(pass)
	if err != nil {
		return err
	}
	for _, f := range prog.CTTime() {
		if f.PkgPath == pass.Pkg.Path() {
			pass.Reportf(f.Pos, "%s", f.Message)
		}
	}
	return nil
}
