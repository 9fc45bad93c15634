package dml

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDMLParse: Parse reads scripts from users and files, so any input must
// parse to a Program or an error, never a panic. Every program it accepts
// prints (Program.String) to text that parses again and prints the same
// text: the printer and the parser agree on the language. The seeds are the
// shipped and lint-fixture scripts plus one snippet per construct.
func FuzzDMLParse(f *testing.F) {
	for _, pattern := range []string{"testdata/lint/*.dml", "../../examples/dml_script/scripts/*.dml"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		if len(paths) == 0 {
			f.Fatalf("no seed scripts match %s", pattern)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	for _, src := range []string{
		"x = 1.5e-3 * -y ^ -2 %*% t(Z) / 4",
		"a <= b; c != d",
		"for (i in 1:n) { s = s + X[i, ] }",
		"if (k > 2) {\n  z = X[1:2, 3]\n} else {\n  z = X[, ]\n}",
		`X = read("data \"q\" \\ x.csv")`,
		"w = solve(t(X) %*% X + lambda * eye(ncol(X)), t(X) %*% y) # ridge",
		"__sumsq(x); (((y)))",
		// Printed as a bare `if`, which parses as a conditional.
		"(if)[1, 2]",
		// A raw carriage return, which strconv.Quote would escape as \r.
		"read(\"a\rb\")",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		text := p.String()
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\nsource:  %q\nprinted: %q", err, src, text)
		}
		if again := q.String(); again != text {
			t.Fatalf("printing is not stable:\nsource:  %q\nprinted: %q\nreprinted: %q", src, text, again)
		}
	})
}
